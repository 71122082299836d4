//! The worker pool, the hot-team cache, and the fork/join entry point.
//!
//! [`fork`] is romp's `__kmpc_fork_call`: the directive layer outlines a
//! parallel region into a closure and passes it here; the calling thread
//! becomes thread 0 of a team whose other members are drawn from a
//! lazily-grown, process-global pool of parked worker threads.
//!
//! ## The sharded pool
//!
//! The idle free list is **sharded**: each forking master hashes to a
//! home shard, acquires from it first (stealing from the other shards
//! only when it runs dry) and releases back to it, so many concurrent
//! masters — the "server" scenario of the syncbench server mode — fork
//! without serializing on one global lock. The shard count is derived
//! from the hardware. Thread-limit accounting is a lock-free atomic
//! reservation counter with a rollback path for failed spawns. See
//! `Pool` (private) for the design notes.
//!
//! ## One fork protocol: doorbell leases
//!
//! The paper's whole premise is that the fork call is cheap enough to
//! wrap *every* loop. Every multi-thread fork therefore runs on a
//! **lease**: the master takes workers from the pool and binds each one
//! to a per-worker `HotChannel` doorbell (one mailbox hand-off per
//! worker), after which a region is
//!
//! 1. `Team::recycle` — reset the previous region's barrier,
//!    worksharing-slot, reduction and task-graph state in place (a
//!    fresh lease starts from a new `Team`);
//! 2. a doorbell **ring** per worker — publish the job pointer and
//!    bump the channel epoch (spin-then-park wait on the worker side,
//!    gated by `OMP_WAIT_POLICY`);
//! 3. the master's own trip through the region;
//! 4. `hot_join` — wait for the workers' completion signals, helping
//!    with any still-pending tasks.
//!
//! There is no closing barrier episode: a worker leaves the region end
//! once every member has arrived and no task is pending
//! (`ThreadCtx::end_of_region_barrier`), the join counter *is* the
//! region-end rendezvous (no thread can leave [`fork`] before every
//! member signalled completion) and the next ring is the release.
//!
//! Like libomp's *hot teams* (`KMP_HOT_TEAMS_MODE`), the master normally
//! **keeps** the lease, so a consecutive fork of the same shape is steps
//! 1–4 only: no pool round-trip, no allocation, no mailbox. The cache
//! lives in a thread-local on the master (`HOT_TEAMS_TLS`, one lease per
//! forking level, so nested forks lease their own sub-teams) and is
//! invalidated — workers released back to the pool — when the requested
//! team shape changes (`num_threads`, wait policy, `dyn-var`), when a
//! region panics, when `ROMP_HOT_TEAMS` is turned off, or when the
//! master thread exits (TLS drop).
//!
//! A lease that is not kept ends with its one region: after the join the
//! master rings every doorbell with a release and hands the slots back
//! to its shard synchronously. That is how forks run with
//! `ROMP_HOT_TEAMS=0`, forks from inside a `final` task (every implicit
//! task of such a region is final — a property of the region, not of a
//! reusable team), forks nested deeper than `MAX_HOT_LEVELS`, and teams
//! the pool delivered short. A serialized region (a team of one) runs
//! inline on the master and touches neither the pool nor the cache.
//!
//! ## Safety of the lifetime erasure
//!
//! The region closure lives on the master's stack and is executed
//! concurrently by workers through a raw pointer (`Job`). This is sound
//! because `fork` does not return until every team member has signalled
//! completion (`Team::remaining` reaching zero), so the closure —
//! and everything it borrows — strictly outlives all worker access.
//! The paper's Zig implementation relies on the identical contract when
//! it passes function pointers plus pointers into the enclosing stack
//! frame to the LLVM OpenMP runtime. The doorbell protocol preserves
//! the contract: a bound worker reads the job pointer only between a
//! ring and its completion signal, and the master rings only between
//! joins.
//!
//! ## Panic handling
//!
//! A panicking team thread records its payload in the team and raises the
//! team abort flag; sibling threads waiting at barriers or dispatch slots
//! observe the flag and unwind with a [`SiblingPanic`] marker. After the
//! join, the master rethrows the first real payload, so a panic inside a
//! parallel region behaves like a panic in serial code. A panic also
//! ends the lease — the next fork rebuilds from the pool — so a
//! poisoned cache can never serve a later region.

use crate::ctx::{
    forking_ancestors, forking_position, RegionInfo, SiblingPanic, ThreadCtx, REGION_STACK,
};
use crate::icv::{self, Icvs, ProcBind, WaitPolicy};
use crate::stats::{bump, stats};
use crate::team::{ForkSnap, Team};
use parking_lot::{Condvar, Mutex};
use std::cell::{Cell, RefCell, UnsafeCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// How a `parallel` construct is launched; carries the clause values the
/// paper's directive supports (`num_threads`, `if`, `proc_bind`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ForkSpec {
    /// `num_threads(n)` clause; `None` = use the `nthreads-var` ICV.
    pub num_threads: Option<usize>,
    /// `if(expr)` clause; `Some(false)` forces a serialized (team-of-one)
    /// region.
    pub if_clause: Option<bool>,
    /// `proc_bind(kind)` clause; `None` = use the `bind-var` ICV. The
    /// effective policy is recorded on the team and, where the OS allows,
    /// enforced by partitioning the place list across the team at fork
    /// (see [`crate::affinity`]).
    pub proc_bind: Option<ProcBind>,
    /// `teams` semantics: the region forms a league and each team member
    /// is an initial team of one. Implies `proc_bind(spread)` unless a
    /// bind was given explicitly, so leagues land on disjoint place
    /// subsets and nested `parallel` regions inherit a local slice.
    pub league: bool,
}

impl ForkSpec {
    /// Default spec: team size from the ICVs.
    pub fn new() -> Self {
        ForkSpec::default()
    }

    /// Request an explicit team size (the `num_threads` clause).
    pub fn with_num_threads(n: usize) -> Self {
        ForkSpec {
            num_threads: Some(n),
            ..ForkSpec::default()
        }
    }

    /// Attach an `if` clause.
    pub fn if_clause(mut self, cond: bool) -> Self {
        self.if_clause = Some(cond);
        self
    }

    /// Attach a `num_threads` clause.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Attach a `proc_bind` clause.
    pub fn proc_bind(mut self, bind: ProcBind) -> Self {
        self.proc_bind = Some(bind);
        self
    }

    /// Request `teams(n)` semantics: a league of `n` initial teams that
    /// spreads across the place partition (unless an explicit `proc_bind`
    /// overrides the spread default).
    pub fn teams(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self.league = true;
        self
    }
}

/// Type-erased pointer to the region closure plus its call trampoline.
/// The second trampoline argument is a type-erased `&ThreadCtx<'env>`.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    call: unsafe fn(*const (), *const ()),
}

// SAFETY: the pointee is `Sync` (bound enforced by `make_job`) and the
// master keeps it alive for the duration of all worker access.
unsafe impl Send for Job {}

fn make_job<'env, F>(f: &F) -> Job
where
    F: Fn(&ThreadCtx<'env>) + Sync,
{
    unsafe fn call<'env, F>(data: *const (), ctx: *const ())
    where
        F: Fn(&ThreadCtx<'env>) + Sync,
    {
        // SAFETY: `data` was produced from `&F` in `make_job` and is kept
        // alive by the forking master until the join completes; `ctx`
        // points at the executing thread's live `ThreadCtx`, whose
        // lifetime parameter is erased here and re-conjured — sound
        // because the context never stores `'env` data, it only brands
        // the `task` bound (see `ThreadCtx` docs).
        let f = unsafe { &*(data as *const F) };
        let ctx = unsafe { &*(ctx as *const ThreadCtx<'env>) };
        f(ctx);
    }
    Job {
        data: f as *const F as *const (),
        call: call::<F>,
    }
}

struct WorkerSlot {
    /// The doorbell of the lease this worker is to bind to next: it
    /// serves regions from that channel until the lease releases it.
    mailbox: Mutex<Option<Arc<HotChannel>>>,
    cv: Condvar,
    /// Index of the shard this slot is released to — the **home shard of
    /// the master that last acquired it** (written at acquire time, read
    /// when the lease ends, both on that master's thread). Keeping
    /// release affinity with the acquiring master means a master that
    /// forks repeatedly keeps finding its own workers in its own shard,
    /// uncontended, and a hot-team resize re-acquires the just-released
    /// slots without touching other shards. Relaxed ordering suffices:
    /// other masters only see the slot again through the shard mutex.
    home: AtomicUsize,
}

/// One shard of the idle-worker free list, plus its observability
/// counters (surfaced in the stats banner — see
/// [`crate::stats::display_stats`]).
struct Shard {
    idle: Mutex<Vec<Arc<WorkerSlot>>>,
    /// Idle slots handed out from this shard to its *own* masters
    /// (masters whose home hash lands here).
    acquired: AtomicU64,
    /// Idle slots stolen *from* this shard by masters homed elsewhere
    /// (their own shard ran dry).
    stolen: AtomicU64,
    /// `try_lock` misses on this shard's free list — a direct measure of
    /// how often two masters collided on the same shard.
    contended: AtomicU64,
}

/// The process-global worker pool: N independent free-list shards plus
/// one atomic thread-limit account.
///
/// The pre-sharding design — a single `Mutex<Vec<WorkerSlot>>` — made
/// every lease build in the process serialize on one lock, which is
/// exactly the wrong shape for the "server" scenario of many concurrent
/// masters forking small regions. Here each master hashes to a **home
/// shard** ([`Pool::home_index`]); acquire pops from the home shard
/// first and sweeps the other shards only when it runs dry
/// (work-stealing fallback, so a worker parked in any shard is always
/// reachable and none can strand); a lease's release pushes to its
/// slots' recorded home. Thread-limit accounting was already lock-free
/// (`total` is an atomic reservation counter) and stays that way; a
/// failed reservation is simply not taken, and a reservation whose
/// spawn fails is **rolled back** (see [`Pool::acquire`]).
struct Pool {
    shards: Box<[Shard]>,
    total: AtomicUsize,
}

/// Shard count: the hardware thread count rounded up to a power of two,
/// floored at 8 — contention comes from concurrent *masters*, which may
/// well outnumber cores on an oversubscribed host — and capped at 64.
/// Frozen for the process lifetime at first pool use (like
/// [`icv::hardware_threads`]).
fn shard_count_for_hardware() -> usize {
    icv::hardware_threads().next_power_of_two().clamp(8, 64)
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let shards = (0..shard_count_for_hardware())
            .map(|_| Shard {
                idle: Mutex::new(Vec::new()),
                acquired: AtomicU64::new(0),
                stolen: AtomicU64::new(0),
                contended: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Pool {
            shards,
            total: AtomicUsize::new(0),
        }
    })
}

thread_local! {
    /// Memoized home-shard index of this thread (`usize::MAX` = not yet
    /// computed). The shard count is process-lifetime constant, so the
    /// hash never needs re-evaluation.
    static HOME_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

impl Pool {
    /// This thread's home shard: a Fibonacci hash of the OS thread id,
    /// so masters spread evenly over the shards regardless of how the
    /// platform allocates thread ids.
    fn home_index(&self) -> usize {
        HOME_SHARD.with(|c| {
            let cached = c.get();
            if cached != usize::MAX {
                return cached;
            }
            let h = crate::lock::os_thread_id().wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let idx = (h >> 32) as usize % self.shards.len();
            c.set(idx);
            idx
        })
    }

    /// Pop up to `want - got.len()` idle slots from shard `idx`,
    /// counting a `try_lock` miss as contention.
    fn take_idle(&self, idx: usize, want: usize, got: &mut Vec<Arc<WorkerSlot>>) -> usize {
        let shard = &self.shards[idx];
        let mut idle = match shard.idle.try_lock() {
            Some(g) => g,
            None => {
                shard.contended.fetch_add(1, Ordering::Relaxed);
                bump(&stats().pool_shard_contention);
                shard.idle.lock()
            }
        };
        let before = got.len();
        while got.len() < want {
            match idle.pop() {
                Some(w) => got.push(w),
                None => break,
            }
        }
        got.len() - before
    }

    /// Take up to `want` idle workers, spawning new ones while under the
    /// thread limit. May return fewer than requested (the spec permits
    /// delivering fewer threads than asked).
    ///
    /// Order of supply: the caller's home shard, then a stealing sweep
    /// over the remaining shards (so no idle worker is ever stranded
    /// behind someone else's hash), then fresh spawns under an atomic
    /// `total` reservation. A reservation whose spawn *fails* is rolled
    /// back and the team is delivered short — spec-legal, and strictly
    /// better than taking the process down mid-request.
    fn acquire(&self, want: usize, icvs: &Icvs) -> Vec<Arc<WorkerSlot>> {
        let mut got = Vec::with_capacity(want);
        if want == 0 {
            return got;
        }
        let home = self.home_index();
        let local = self.take_idle(home, want, &mut got);
        if local > 0 {
            self.shards[home]
                .acquired
                .fetch_add(local as u64, Ordering::Relaxed);
            stats()
                .pool_acquires_local
                .fetch_add(local as u64, Ordering::Relaxed);
        }
        if got.len() < want && self.shards.len() > 1 {
            for off in 1..self.shards.len() {
                let victim = (home + off) % self.shards.len();
                let stolen = self.take_idle(victim, want, &mut got);
                if stolen > 0 {
                    self.shards[victim]
                        .stolen
                        .fetch_add(stolen as u64, Ordering::Relaxed);
                    stats()
                        .pool_acquires_stolen
                        .fetch_add(stolen as u64, Ordering::Relaxed);
                }
                if got.len() == want {
                    break;
                }
            }
        }
        // Re-home everything we picked up (stolen slots included) to the
        // acquiring master's shard: that is where the release will look
        // for them next.
        for w in &got {
            w.home.store(home, Ordering::Relaxed);
        }
        // The limit counts all threads; reserve one for the initial thread.
        let worker_cap = icvs.thread_limit.saturating_sub(1);
        while got.len() < want {
            if self
                .total
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |t| {
                    (t < worker_cap).then_some(t + 1)
                })
                .is_err()
            {
                break;
            }
            match spawn_worker(icvs.stacksize, home) {
                Ok(w) => got.push(w),
                Err(_) => {
                    // Roll back the reservation the failed spawn was
                    // holding — leaking it would permanently shrink the
                    // effective thread limit — and degrade to a short
                    // team rather than panicking the whole process.
                    self.total.fetch_sub(1, Ordering::AcqRel);
                    bump(&stats().worker_spawn_failures);
                    break;
                }
            }
        }
        got
    }
}

/// Test hook: make the next `n` worker spawns *from this thread's
/// forks* fail with an injected error, exercising the
/// reservation-rollback / short-team degradation path in
/// [`Pool::acquire`] without needing to exhaust real OS thread
/// resources.
///
/// The count is thread-local (spawns happen on the forking master's
/// thread, inside `acquire`), so an armed count can never leak into
/// unrelated tests running concurrently in the same process — the
/// process-global counter this replaced poisoned whichever suite
/// forked next. Randomized spawn-failure injection across threads goes
/// through the `chaos` feature's [`crate::chaos::Site::WorkerSpawn`]
/// site instead.
#[doc(hidden)]
pub fn inject_spawn_failures(n: usize) {
    FAIL_SPAWNS.with(|c| c.set(n));
}

thread_local! {
    /// Pending injected spawn failures for forks from this thread.
    static FAIL_SPAWNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Consume one injected spawn failure, if armed on this thread.
fn take_injected_spawn_failure() -> bool {
    FAIL_SPAWNS.with(|c| {
        let n = c.get();
        if n > 0 {
            c.set(n - 1);
            true
        } else {
            false
        }
    })
}

/// Monotonic worker-id allocator for thread naming. Deliberately *not*
/// the `workers_spawned` stats counter: concurrent spawns from
/// different masters used to interleave bump/read pairs on that counter
/// and produce duplicate-looking names.
static NEXT_WORKER_ID: AtomicU64 = AtomicU64::new(0);

fn spawn_worker(stacksize: Option<usize>, shard: usize) -> std::io::Result<Arc<WorkerSlot>> {
    if take_injected_spawn_failure()
        || matches!(
            crate::chaos::chaos_point!(crate::chaos::Site::WorkerSpawn),
            Some(crate::chaos::Injected::SpawnFail)
        )
    {
        return Err(std::io::Error::other("injected romp worker spawn failure"));
    }
    let slot = Arc::new(WorkerSlot {
        mailbox: Mutex::new(None),
        cv: Condvar::new(),
        home: AtomicUsize::new(shard),
    });
    let their_slot = slot.clone();
    let id = NEXT_WORKER_ID.fetch_add(1, Ordering::Relaxed);
    let mut builder = std::thread::Builder::new().name(format!("romp-worker-{id}.s{shard}"));
    if let Some(bytes) = stacksize {
        builder = builder.stack_size(bytes);
    }
    builder.spawn(move || worker_main(their_slot))?;
    bump(&stats().workers_spawned);
    Ok(slot)
}

fn worker_main(slot: Arc<WorkerSlot>) {
    loop {
        let channel = {
            let mut mb = slot.mailbox.lock();
            loop {
                if let Some(ch) = mb.take() {
                    break ch;
                }
                slot.cv.wait(&mut mb);
            }
        };
        hot_worker_loop(&channel);
        // Release order matters: leases this worker grew while bound
        // (it was a nested master) are parented by `channel.team`, which
        // the channel Arc keeps alive until the line after next — and a
        // worker must never carry them into the idle pool.
        drop_hot_leases_from(0);
        drop(channel);
        // The lease already pushed this slot back to the idle list
        // (`HotTeam::drop`); go straight back to the mailbox wait — the
        // next binding may even be waiting there already.
    }
}

/// Decrement the team's outstanding-worker count and, if this was the
/// last one, wake the joining master (`hot_join` idles through
/// [`IdleWait`], whose park rung this `unpark` ends).
fn signal_completion(team: &Team) {
    if team.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        team.master.unpark();
    }
}

/// Run a region body as `thread_num` of `team` on the current thread:
/// maintain the region TLS stack, catch panics into the team, and run
/// the region end (the deferred-task drain — see
/// `ThreadCtx::end_of_region_barrier`).
fn run_region(team: &Arc<Team>, thread_num: usize, job: Job) {
    REGION_STACK.with(|s| {
        s.borrow_mut().push(RegionInfo {
            team: team.clone(),
            thread_num,
        })
    });
    // Pin this thread to its place before any user code runs. The
    // placement rides in the fork snapshot, so a recycled hot team
    // re-reads it every region; the per-thread memo in `apply` makes
    // the unchanged case syscall-free.
    if let Some(places) = team.places() {
        crate::affinity::apply(&places, thread_num);
    }
    // A region forked from a final task is executed by final implicit
    // tasks on *every* team thread: re-establish the TLS flag here so
    // tasks spawned by any member come out included (undeferred).
    let _final = team.parent_final.then(crate::task::FinalGuard::enter);
    let ctx: ThreadCtx<'_> = ThreadCtx::new(team.clone(), thread_num);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // SAFETY: the master blocks in `hot_join` until every team thread has
        // finished with the job, so the closure behind `job.data` (and
        // everything it borrows) outlives this call.
        unsafe { (job.call)(job.data, &ctx as *const ThreadCtx<'_> as *const ()) };
        ctx.end_of_region_barrier();
    }));
    if let Err(payload) = result {
        team.record_panic(payload);
    }
    REGION_STACK.with(|s| {
        s.borrow_mut().pop();
    });
}

// ---------------------------------------------------------------------
// Doorbell leases
// ---------------------------------------------------------------------

/// Spin → yield → park idle ladder, derived from `OMP_WAIT_POLICY`.
///
/// The yield rung is what makes hot teams fast on oversubscribed hosts:
/// a yielding thread donates its timeslice to whichever sibling it is
/// waiting for (master at the join, workers at their doorbells) without
/// the futex round trip that parking costs, and without the timeslice
/// theft that spinning costs. `active` spins indefinitely; `passive`
/// parks almost immediately, as the spec intends; the default hybrid
/// policy climbs all three rungs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IdleWait {
    /// Busy-spin rounds before yielding (`u32::MAX` = spin forever).
    spin: u32,
    /// `yield_now` rounds before parking.
    yields: u32,
}

impl IdleWait {
    /// Common policy table: only the hybrid rung differs between the
    /// doorbell and join ladders, so it is the one parameter.
    fn ladder(policy: WaitPolicy, oversubscribed: bool, hybrid: IdleWait) -> Self {
        match policy {
            // Spin-forever only when a core is actually free for it:
            // oversubscribed active degrades to a yield loop (same
            // heuristic the barrier applies), or it would burn whole
            // timeslices the sibling being waited for needs.
            WaitPolicy::Active if oversubscribed => IdleWait {
                spin: 64,
                yields: u32::MAX,
            },
            WaitPolicy::Active => IdleWait {
                spin: u32::MAX,
                yields: 0,
            },
            WaitPolicy::Passive => IdleWait { spin: 8, yields: 0 },
            WaitPolicy::Hybrid => hybrid,
        }
    }

    /// Ladder for a worker idling at its doorbell. On an oversubscribed
    /// host the worker parks almost immediately: a freshly-woken worker
    /// has the lowest virtual runtime, so any post-completion yield
    /// phase keeps the CPU away from the master that is trying to reach
    /// the next ring (measured: one such region costs ~20µs instead of
    /// ~3µs), while a park/unpark round trip is cheap.
    fn doorbell(policy: WaitPolicy, oversubscribed: bool) -> Self {
        let hybrid = if oversubscribed {
            IdleWait {
                spin: 8,
                yields: 32,
            }
        } else {
            IdleWait {
                spin: 512,
                yields: 256,
            }
        };
        Self::ladder(policy, oversubscribed, hybrid)
    }

    /// Ladder for the master's join. The master *wants* to donate its
    /// timeslice to the workers it waits for, so the hybrid ladder
    /// leans on yields (cheap directed switches on an oversubscribed
    /// host) with the park only as a backstop for long regions.
    fn join(policy: WaitPolicy, oversubscribed: bool) -> Self {
        let hybrid = IdleWait {
            spin: if oversubscribed { 0 } else { 512 },
            yields: 4096,
        };
        Self::ladder(policy, oversubscribed, hybrid)
    }

    /// Execute idle round number `idle` (1-based, saturating).
    ///
    /// `timed_park` selects the park rung's flavor: the doorbell uses
    /// an untimed `park` (pure token protocol — a direct ring bumps the
    /// epoch before its `unpark`, a chain-forwarded wake only reaches a
    /// worker whose channel the master already primed because the hit
    /// path primes in reverse chain order, and the worker re-checks the
    /// epoch around every park — so a park can never consume a token
    /// against a stale epoch and strand the worker; timed parks were
    /// measured to cost tens of µs in timer bookkeeping on some
    /// kernels). The join keeps a timed park as a liveness backstop:
    /// a dependence release can land work on a busy worker's deque,
    /// and the master must wake up to steal it even though no
    /// completion signal fires.
    fn wait(&self, idle: u32, timed_park: bool) {
        if self.spin == u32::MAX || idle < self.spin {
            std::hint::spin_loop();
        } else if idle - self.spin < self.yields {
            std::thread::yield_now();
        } else {
            // Chaos: a delay here stretches the window between the
            // caller's last condition check and the park — the exact
            // schedule in which a forgotten wake token strands a waiter.
            let _ = crate::chaos::chaos_point!(crate::chaos::Site::Park);
            if timed_park {
                std::thread::park_timeout(std::time::Duration::from_millis(1));
            } else {
                std::thread::park();
            }
        }
    }
}

/// Per-bound-worker doorbell: the channel a hot master rings to
/// dispatch the next region to a worker that stays attached between
/// regions.
///
/// Protocol: the master writes `job`, then bumps `epoch` (release), then
/// `unpark`s the worker. The worker idles on `epoch` through the wait
/// policy's spin → yield → park ladder ([`IdleWait`]); `unpark`'s token
/// semantics make the park/ring race benign without any lock — an
/// unpark delivered while the worker is still running simply makes its
/// next park return immediately, and the worker re-checks the epoch
/// around every park anyway. (A mutex+condvar doorbell was measured to
/// cost a full context-switch round trip per ring on an oversubscribed
/// host: the master blocks on the lock the about-to-park worker holds.)
struct HotChannel {
    team: Arc<Team>,
    thread_num: usize,
    /// Doorbell generation; bumped once per dispatched region.
    epoch: AtomicU64,
    /// Master orders the worker back to the global pool.
    release: AtomicBool,
    /// The region closure for the current epoch. Written by the master
    /// strictly between joins; read by the worker strictly between a
    /// ring and its completion signal.
    job: UnsafeCell<Option<Job>>,
    /// The bound worker's thread handle, registered when it first
    /// services the channel; `ring` unparks it. (The first region's job
    /// is pre-armed before the channel is mailed, so the master never
    /// needs to ring before registration.)
    worker: OnceLock<std::thread::Thread>,
    /// The next sibling in the team's **wake chain**: the master
    /// unparks only the first worker, and each worker forwards the wake
    /// before running its own share of the region. Wake syscalls thus
    /// ride on threads that are about to park anyway instead of
    /// preempting the master once per worker (which serialized the ring
    /// loop into per-worker context-switch round trips). Sound only
    /// because the hit path primes channels in **reverse** chain order:
    /// a forwarded wake always finds its target's epoch already bumped.
    next: Option<Arc<HotChannel>>,
    /// Idle ladder of the team's wait policy (`OMP_WAIT_POLICY`).
    idle: IdleWait,
}

impl HotChannel {
    /// Unpark the bound worker (token-based, cheap if it is not parked).
    fn wake(&self) {
        if let Some(w) = self.worker.get() {
            w.unpark();
        }
    }
}

// SAFETY: the only non-Sync field is `job`; master writes and worker
// reads are separated by the epoch/remaining handshake (the master
// writes only after the previous join, the worker reads only after
// observing the epoch bump), so accesses never overlap.
unsafe impl Send for HotChannel {}
unsafe impl Sync for HotChannel {}

/// Publish the next region's job on a doorbell **without** waking the
/// worker (the wake arrives via the chain, or from [`ring`]).
fn prime(ch: &HotChannel, job: Option<Job>) {
    // Chaos: delay between the previous channel's publication and this
    // one — the hit path's reverse-order priming is only sound if no
    // interleaving can let a forwarded wake outrun an unprimed channel.
    let _ = crate::chaos::chaos_point!(crate::chaos::Site::DoorbellPrime);
    // SAFETY: see `HotChannel::job` — the worker finished the previous
    // region (the master joined) and has not yet observed the bump below,
    // so no concurrent access to the cell exists.
    unsafe {
        *ch.job.get() = job;
    }
    ch.epoch.fetch_add(1, Ordering::Release);
}

/// Ring a bound worker's doorbell with the next region's job and wake it
/// directly (used on the release path; normal forks prime every channel
/// and let the wake chain propagate from the first worker).
fn ring(ch: &HotChannel, job: Option<Job>) {
    prime(ch, job);
    // Chaos: delay between publication and wake — a worker that can
    // only make progress through this wake must still get it.
    let _ = crate::chaos::chaos_point!(crate::chaos::Site::DoorbellRing);
    ch.wake();
}

/// A bound worker's service loop: wait at the doorbell, run the region,
/// signal completion, repeat — until released back to the pool.
fn hot_worker_loop(ch: &HotChannel) {
    let _ = ch.worker.set(std::thread::current());
    // The channel arrives pre-armed: epoch 1 with the first region's job
    // already published, so starting from 0 runs it immediately.
    let mut seen = 0u64;
    loop {
        // Doorbell wait: the wait policy's spin → yield → park ladder.
        let mut idle = 0u32;
        loop {
            let e = ch.epoch.load(Ordering::Acquire);
            if e != seen {
                seen = e;
                break;
            }
            idle = idle.saturating_add(1);
            ch.idle.wait(idle, false);
        }
        if ch.release.load(Ordering::SeqCst) {
            return;
        }
        // Forward the wake down the chain before touching our own
        // share, so siblings start (and, on a multicore host, run)
        // concurrently with us.
        if let Some(next) = &ch.next {
            next.wake();
        }
        // SAFETY: the master published the job before the epoch bump we
        // just observed and will not touch the cell again until we
        // signal completion below.
        let Some(job) = (unsafe { *ch.job.get() }) else {
            // Unreachable by the doorbell protocol: the job write
            // happens-before the epoch bump we just observed (release
            // store, acquire load). But a panic *here* — runtime-
            // internal code, outside any region's catch_unwind — would
            // kill the worker without signalling completion and hang
            // the master's join forever. An empty ring degrades to a
            // spurious wake instead: warn and re-wait at the doorbell.
            eprintln!(
                "ROMP WARNING: doorbell epoch {seen} rang without a job \
                 (thread {}); treating as a spurious wake",
                ch.thread_num
            );
            continue;
        };
        icv::tls_clear_overrides();
        run_region(&ch.team, ch.thread_num, job);
        signal_completion(&ch.team);
    }
}

/// Cache key: the team shape plus, for nested leases, the identity of
/// the enclosing team. A fork whose key differs rebuilds the hot team
/// (counted as a resize).
///
/// The effective `proc_bind`/places are deliberately **not** part of
/// the key: the placement rides in the [`ForkSnap`], which
/// `Team::recycle` rewrites on every hit, and `run_region` re-applies
/// it per thread through the [`crate::affinity`] memo — so a binding
/// change re-pins the *reused* team instead of tearing it down
/// (asserted by `hot_reuse_survives_proc_bind_change` in
/// `tests/hot_team.rs`).
#[derive(Clone, Copy, PartialEq, Eq)]
struct HotKey {
    /// Requested team size (post `if`/nesting/limit clamping).
    n: usize,
    /// The **raw** `OMP_WAIT_POLICY` ICV — deliberately not the
    /// oversubscription-adjusted effective policy (see [`hot_fork`]), so
    /// a policy change always rebuilds even when oversubscription would
    /// mask it at the barrier.
    wait_policy: WaitPolicy,
    /// `dyn-var`: a change re-evaluates team sizing, so it rebuilds.
    dynamic: bool,
    /// Identity of the enclosing team (`Arc::as_ptr`), 0 for an
    /// outermost fork. A nested lease is only valid while its parent
    /// team is alive and unchanged; the parent's own lease (or the
    /// worker's channel binding) keeps that team allocation alive for
    /// exactly as long as this lease can exist, so the pointer cannot
    /// be ABA-reused while the key is live (see the teardown notes on
    /// [`drop_hot_leases_from`]).
    parent: usize,
    /// This thread's rank within the enclosing team — a different rank
    /// means a different inherited place partition.
    parent_thread: usize,
}

/// A lease: the `Team` allocation plus the doorbells and pool slots of
/// the workers bound to it.
struct HotTeam {
    key: HotKey,
    team: Arc<Team>,
    channels: Vec<Arc<HotChannel>>,
    /// The bound workers' pool slots, retained so the release can hand
    /// them back to the idle list synchronously (see [`Drop`]).
    slots: Vec<Arc<WorkerSlot>>,
}

impl Drop for HotTeam {
    /// End the lease: release every bound worker back to the global pool
    /// (after the one region of a lease that is not kept; on cache
    /// invalidation or master thread exit for a kept one).
    ///
    /// The slots are pushed back to the idle list *here*, synchronously,
    /// rather than by the workers themselves once they wake: a resize or
    /// the next one-region lease calls `acquire` right after this drop,
    /// and an asynchronous return would make it spawn fresh OS threads
    /// (creep toward `thread-limit-var`) or deliver a short team under a
    /// tight limit even though enough workers exist in flight.
    /// Re-acquiring a slot before its worker has woken is safe: the next
    /// binding just waits in the mailbox, which the worker checks before
    /// blocking on the condvar.
    fn drop(&mut self) {
        for ch in &self.channels {
            ch.release.store(true, Ordering::SeqCst);
            ring(ch, None);
        }
        if self.slots.is_empty() {
            return;
        }
        // All bound slots were re-homed to the releasing master's shard
        // at acquire time, so one shard lock covers the whole batch —
        // and an immediately-following resize acquire from this same
        // master starts its search exactly there.
        let p = pool();
        let idx = self.slots[0].home.load(Ordering::Relaxed) % p.shards.len();
        let mut idle = p.shards[idx].idle.lock();
        idle.extend(self.slots.drain(..));
    }
}

/// Deepest forking level the hot cache serves. The busy mask is one
/// machine word; forks nested deeper than this (absurd in practice)
/// run on leases that are not kept.
const MAX_HOT_LEVELS: usize = 64;

thread_local! {
    /// This thread's hot-team leases, indexed by **forking level** (0 =
    /// outermost). Slot 0 is the classic flat hot team; a thread that
    /// becomes a nested master — a bound worker, or the master forking
    /// from inside its own region — leases its own doorbell-driven
    /// sub-team at its forking level. Together with every other
    /// thread's vector this forms the process-wide team tree: each node
    /// is owned by the thread that is its master.
    ///
    /// Teardown discipline (what makes the raw parent pointer in
    /// [`HotKey`] sound): rebuilding or evicting the lease at level `L`,
    /// or ending a lease at `L` that was not kept, first drops all
    /// deeper leases (they may be parented by the team being torn down),
    /// and a worker drops its whole vector before releasing the channel
    /// that keeps its parent team alive.
    static HOT_TEAMS_TLS: RefCell<Vec<Option<HotTeam>>> = const { RefCell::new(Vec::new()) };
    /// Re-entrancy backstop, one bit per forking level: bit `L` is set
    /// while this thread is between a hot ring at level `L` and the
    /// completion of the matching join. In the current code no `fork`
    /// can observe its own level's bit — every task executed while
    /// joining runs with the region stack pushed
    /// (`execute_joining_task`), so such forks see forking level `L+1`
    /// and consult bit `L+1`, which is clear. Kept as a cheap guard
    /// against a future task-execution path that forgets to push the
    /// stack: recycling a team mid-region would be memory-unsafe, not
    /// just wrong.
    static HOT_BUSY: Cell<u64> = const { Cell::new(0) };
}

/// Drop this thread's hot-team leases at `level` and deeper (releasing
/// their bound workers back to the global pool). Dropping a prefix is
/// never valid — a lease at `L+1` is parented by the lease at `L`'s
/// team — which is why the only teardown primitive is suffix
/// truncation.
fn drop_hot_leases_from(level: usize) {
    HOT_TEAMS_TLS.with(|cell| {
        let mut cache = cell.borrow_mut();
        if cache.len() > level {
            // Deepest first: a lease's parent team must still be alive
            // (and its workers bound) while the lease's own release
            // rings go out.
            while cache.len() > level {
                cache.pop();
            }
        }
    });
}

/// Effective wait policy for a team of `size`: oversubscribed teams
/// (more threads than cores) park immediately — spinning at barriers
/// steals the timeslice from the sibling that would release us (libomp
/// applies the same heuristic).
fn effective_wait_policy(size: usize, icvs: &Icvs) -> WaitPolicy {
    if size > icv::hardware_threads() {
        WaitPolicy::Passive
    } else {
        icvs.wait_policy
    }
}

/// Fork on a doorbell lease at forking level `level` (0 = outermost; a
/// nested master leases its own sub-team at its level) and run the
/// region. With `keep` the lease comes from, and stays in, this
/// thread's cache; otherwise it is built for this one region and ended
/// after the join. Returns the team so the caller can rethrow a
/// recorded panic.
#[allow(clippy::too_many_arguments)] // the fork's resolved clauses
fn hot_fork(
    n: usize,
    level: usize,
    active_level: usize,
    icvs: &Icvs,
    snap: ForkSnap,
    parent_final: bool,
    keep: bool,
    job: Job,
) -> Arc<Team> {
    // The barrier and idle ladders adjust per the oversubscription
    // heuristic, but the key carries the *raw* ICV (the adjustment is a
    // pure function of it and the delivered size), so an
    // `OMP_WAIT_POLICY` change always rebuilds — even when
    // oversubscription would mask it at the barrier.
    let (parent, parent_thread) =
        crate::ctx::with_current(|r| (Arc::as_ptr(&r.team) as usize, r.thread_num), || (0, 0));
    let key = HotKey {
        n,
        wait_policy: icvs.wait_policy,
        dynamic: icvs.dynamic,
        parent,
        parent_thread,
    };
    // The lease to end after this region, if it is not kept.
    let mut uncached: Option<HotTeam> = None;
    let team = if keep {
        HOT_TEAMS_TLS.with(|cell| {
            let mut cache = cell.borrow_mut();
            if cache.len() <= level {
                cache.resize_with(level + 1, || None);
            }
            // A hit requires the cached team to have actually delivered
            // the requested size (short teams are not cached — see
            // below), so a capped build retries acquisition on every
            // fork.
            if let Some(ht) = cache[level].as_ref().filter(|ht| ht.key == key) {
                // Hit: recycle in place and ring the doorbells. Prime in
                // *reverse* chain order: a still-spinning worker can
                // observe its own epoch bump the instant it lands and
                // immediately forward the chain wake to its successor,
                // so the successor's channel must already be primed by
                // then — otherwise the forwarded unpark token is
                // consumed by a stale-epoch re-park and, the doorbell
                // park being untimed, the worker is stranded forever
                // (and the join with it).
                bump(&stats().hot_team_hits);
                if level > 0 {
                    bump(&stats().hot_team_nested_hits);
                }
                ht.team.recycle(snap);
                for ch in ht.channels.iter().rev() {
                    prime(ch, Some(job));
                }
                if let Some(first) = ht.channels.first() {
                    // Chaos: delay between the last prime and the
                    // chain-head wake — the lost-wakeup-critical edge
                    // this path's reverse-order priming exists to
                    // protect.
                    let _ = crate::chaos::chaos_point!(crate::chaos::Site::DoorbellRing);
                    first.wake();
                }
                return ht.team.clone();
            }
            // Rebuild: leases deeper than this level are parented by the
            // team about to be dropped, so they must go first (deepest
            // first — see `drop_hot_leases_from`).
            while cache.len() > level + 1 {
                cache.pop();
            }
            if cache[level].take().is_some() {
                // Shape changed: drop the lease (workers return to the
                // pool, possibly to be re-acquired two lines down).
                bump(&stats().hot_team_resizes);
            } else {
                bump(&stats().hot_team_misses);
            }
            if level > 0 {
                bump(&stats().hot_team_nested_misses);
            }
            let ht = new_lease(key, level, active_level, icvs, snap, false, job);
            let team = ht.team.clone();
            // A team that the pool delivered short (thread-limit
            // pressure) is never cached — it could never hit (a hit
            // requires delivered size == requested), so caching it would
            // only make every subsequent same-shape fork tear it down as
            // a bogus "resize".
            if team.size() == n {
                cache[level] = Some(ht);
            } else {
                uncached = Some(ht);
            }
            team
        })
    } else {
        let ht = new_lease(key, level, active_level, icvs, snap, parent_final, job);
        let team = ht.team.clone();
        uncached = Some(ht);
        team
    };
    if team.size() == 1 {
        bump(&stats().serialized_forks);
    }
    let join_idle = IdleWait::join(icvs.wait_policy, team.size() > icv::hardware_threads());
    run_region(&team, 0, job);
    hot_join(&team, join_idle);
    // A lease that is not kept ends with its one region (Drop rings the
    // release and hands the slots back) — safe only now, after the join.
    // Any deeper leases this master grew *inside* the region are
    // parented by its team: deepest first, parent last.
    if uncached.is_some() {
        drop_hot_leases_from(level + 1);
        drop(uncached);
    }
    team
}

/// Take up to `key.n - 1` workers from the pool, build the team they
/// deliver and bind each worker to a doorbell pre-armed with the first
/// region's `job`.
fn new_lease(
    key: HotKey,
    level: usize,
    active_level: usize,
    icvs: &Icvs,
    snap: ForkSnap,
    parent_final: bool,
    job: Job,
) -> HotTeam {
    let workers = pool().acquire(key.n.saturating_sub(1), icvs);
    let size = workers.len() + 1;
    // Oversubscription keys on the *delivered* size: a
    // thread-limit-capped team that fits the cores must not get
    // park-early wait behavior just because more was requested.
    let bell = IdleWait::doorbell(icvs.wait_policy, size > icv::hardware_threads());
    let team = Arc::new(Team::new(
        size,
        level + 1,
        // A region only counts as active when it actually has more than
        // one thread (OpenMP 5.2 §1.2.2): a team delivered short at size
        // 1 under pool pressure is not an active region.
        active_level + usize::from(size > 1),
        effective_wait_policy(size, icvs),
        forking_ancestors(),
        snap,
        parent_final,
    ));
    // Built back to front so each channel can point at its wake-chain
    // successor; the mails (which wake every worker through its pool
    // mailbox) then go out in any order.
    let mut channels: Vec<Arc<HotChannel>> = Vec::with_capacity(workers.len());
    let mut next: Option<Arc<HotChannel>> = None;
    for i in (1..size).rev() {
        // Pre-arm the doorbell with the first region's job so the worker
        // starts it straight out of the mailbox.
        let ch = Arc::new(HotChannel {
            team: team.clone(),
            thread_num: i,
            epoch: AtomicU64::new(1),
            release: AtomicBool::new(false),
            job: UnsafeCell::new(Some(job)),
            worker: OnceLock::new(),
            next: next.take(),
            idle: bell,
        });
        next = Some(ch.clone());
        channels.push(ch);
    }
    channels.reverse();
    for (w, ch) in workers.iter().zip(&channels) {
        *w.mailbox.lock() = Some(ch.clone());
        w.cv.notify_one();
    }
    HotTeam {
        key,
        team,
        channels,
        slots: workers,
    }
}

/// The hot master's join: wait until every bound worker has signalled
/// completion *and* the task graph is drained, helping to execute
/// pending tasks meanwhile (a worker may have left its share of the
/// graph behind, and tasks the master spawned after the workers finished
/// are its own to run). Doubles as the region-end rendezvous — regions
/// have no closing barrier episode.
fn hot_join(team: &Arc<Team>, idle: IdleWait) {
    let mut seed = crate::lock::os_thread_id() | 1;
    let mut rounds = 0u32;
    loop {
        let workers_done = team.remaining.load(Ordering::Acquire) == 0;
        let pending = team.tasks.pending();
        if workers_done && (pending == 0 || team.abort.load(Ordering::Relaxed)) {
            break;
        }
        if pending > 0 {
            if let Some(t) = team.tasks.pop_or_steal(0, &mut seed) {
                execute_joining_task(team, t);
                rounds = 0;
                continue;
            }
        }
        rounds = rounds.saturating_add(1);
        // The last worker's completion signal is an `unpark`, so the
        // ladder's park rung is woken promptly (and timed regardless).
        idle.wait(rounds, true);
    }
}

/// Run one task on the joining master. The region stack is re-pushed so
/// the task observes itself inside the region (as it would when executed
/// by any other team thread), and a panic is recorded rather than
/// propagated — the join must still complete; `fork` rethrows after.
fn execute_joining_task(team: &Arc<Team>, task: crate::task::RawTask) {
    REGION_STACK.with(|s| {
        s.borrow_mut().push(RegionInfo {
            team: team.clone(),
            thread_num: 0,
        })
    });
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        team.tasks.execute(0, task);
    }));
    REGION_STACK.with(|s| {
        s.borrow_mut().pop();
    });
    if let Err(payload) = result {
        team.record_panic(payload);
    }
}

// ---------------------------------------------------------------------
// fork
// ---------------------------------------------------------------------

/// Fork a parallel region: run `f` once per team thread, join, and
/// propagate panics. The analogue of `__kmpc_fork_call`.
///
/// Team size resolution follows the spec: the `if` clause can force
/// serialization; otherwise `num_threads`, then the `nthreads-var` ICV;
/// nesting beyond `max-active-levels` serializes; everything is clamped
/// by `thread-limit-var` and by how many workers the pool can actually
/// deliver.
///
/// Every multi-thread fork runs on a doorbell lease (see the module
/// docs), kept in the hot-team cache unless `ROMP_HOT_TEAMS=0` —
/// including **nested** forks: a thread that is already inside a region
/// leases its own sub-team at its forking level, so after warmup an
/// inner region is as cheap as an outer one. Forks from final tasks and
/// forks nested deeper than `MAX_HOT_LEVELS` run on a lease that ends
/// with the region.
///
/// The `'env` lifetime plays the role of `std::thread::scope`'s
/// environment lifetime: closures handed to
/// [`ThreadCtx::task`] may borrow anything that outlives the `fork`
/// call, because the region's implicit end barrier drains all deferred
/// tasks before `fork` returns.
pub fn fork<'env, F>(spec: ForkSpec, f: F)
where
    F: Fn(&ThreadCtx<'env>) + Sync,
{
    let mut icvs = icv::current();
    // ICV inheritance for nested regions: the child team's
    // `run-sched-var` comes from the enclosing team's fork-time
    // snapshot (not this OS thread's view of the global ICV), unless
    // this thread explicitly called `omp_set_schedule` in the region.
    if icv::tls_run_sched_override().is_none() {
        crate::ctx::with_current(|r| icvs.run_sched = r.team.run_sched(), || ());
    }
    let (level, active_level) = forking_position();
    let parent_final = crate::task::in_final();
    let mut n = match spec.if_clause {
        Some(false) => 1,
        _ => spec
            .num_threads
            .unwrap_or_else(|| icvs.nthreads_for_level(level)),
    };
    if active_level >= icvs.max_active_levels {
        n = 1;
    }
    n = n.clamp(1, icvs.thread_limit.max(1));
    bump(&stats().forks);

    let job = make_job(&f);
    // The effective binding: clause beats the per-level `bind-var`
    // list. A league defaults to `spread` so member teams land on
    // disjoint place subsets.
    let bind = spec.proc_bind.unwrap_or_else(|| {
        let b = icvs.proc_bind_for_level(level);
        if spec.league && b == ProcBind::False {
            ProcBind::Spread
        } else {
            b
        }
    });
    // The place partition is recomputed at *every* fork — including hot
    // recycles, where it rides into the team through `recycle`'s snap
    // rewrite — so placement never needs to participate in the cache
    // key (see [`HotKey`]). Serialized regions keep the enclosing
    // partition (the stack walk in `affinity::team_places` starts from
    // the innermost *placed* region).
    let places = if n > 1 {
        crate::affinity::team_places(bind, n, &icvs)
    } else {
        None
    };
    let snap = ForkSnap {
        run_sched: icvs.run_sched,
        proc_bind: bind,
        places,
        league: spec.league,
        cancellable: icvs.cancellation,
    };

    // May this fork keep its lease? Not from a final task, and not at a
    // level the busy mask cannot track (the bound check comes first: it
    // guards the shift) or whose lease is mid-region on this thread.
    let cacheable = !parent_final
        && level < MAX_HOT_LEVELS
        && HOT_BUSY.with(|b| b.get()) & (1u64 << level) == 0;
    if cacheable && !icvs.hot_teams {
        // Hot teams were switched off between regions: stop hoarding the
        // bound workers at this level and deeper (shallower leases
        // belong to still-active enclosing regions).
        drop_hot_leases_from(level);
    }

    // Serialized regions (`if(false)`, `num_threads(1)`, nesting beyond
    // `max-active-levels`) run inline *without touching the cache* —
    // evicting a multi-thread lease for a team of one would thrash
    // workers on every serial/parallel alternation, and a serial region
    // gains nothing from bound workers anyway.
    if n == 1 {
        bump(&stats().serialized_forks);
        let team = Arc::new(Team::new(
            1,
            level + 1,
            active_level,
            icvs.wait_policy,
            forking_ancestors(),
            snap,
            parent_final,
        ));
        run_region(&team, 0, job);
        rethrow(&team);
        return;
    }

    let keep = cacheable && icvs.hot_teams;
    struct BusyGuard(usize);
    impl Drop for BusyGuard {
        fn drop(&mut self) {
            HOT_BUSY.with(|b| b.set(b.get() & !(1u64 << self.0)));
        }
    }
    let _busy = keep.then(|| {
        HOT_BUSY.with(|b| b.set(b.get() | (1u64 << level)));
        BusyGuard(level)
    });
    let team = hot_fork(n, level, active_level, &icvs, snap, parent_final, keep, job);
    if team.abort.load(Ordering::Acquire) {
        // Never reuse a team a panic tore through: release the workers
        // (and any sub-leases parented by them) and rebuild on the next
        // fork. A lease that was not kept is already gone.
        if keep {
            drop_hot_leases_from(level);
        }
        rethrow(&team);
    }
}

/// After the join: if any team thread panicked, rethrow on the master.
fn rethrow(team: &Arc<Team>) {
    if team.abort.load(Ordering::Acquire) {
        // Leftover tasks must die here, on the master, while the `'env`
        // frame their closures may borrow is still alive (see
        // `TaskSystem::purge`). Every caller reaches this after the
        // join, so no worker touches the task system concurrently.
        team.tasks.purge();
        let payload = team.panic_payload.lock().take();
        match payload {
            Some(p) => std::panic::resume_unwind(p),
            None => std::panic::panic_any(SiblingPanic),
        }
    }
}

/// Number of workers currently alive in the global pool (diagnostic).
pub fn pool_size() -> usize {
    pool().total.load(Ordering::Acquire)
}

/// Number of workers currently parked on idle free lists, summed across
/// all shards (diagnostic). When no fork is in flight and no hot-team
/// lease is held, this converges to [`pool_size`] — the "no stranded
/// workers" invariant the many-master stress suite pins.
pub fn idle_workers() -> usize {
    pool().shards.iter().map(|s| s.idle.lock().len()).sum()
}

/// Number of free-list shards the pool was built with (diagnostic;
/// resolved once per process — see `resolved_shard_count`).
pub fn shard_count() -> usize {
    pool().shards.len()
}

/// Per-shard `(acquired, stolen, contended)` counter snapshot, in shard
/// order (diagnostic; rendered by [`crate::stats::display_stats`]).
pub fn shard_counters() -> Vec<(u64, u64, u64)> {
    pool()
        .shards
        .iter()
        .map(|s| {
            (
                s.acquired.load(Ordering::Relaxed),
                s.stolen.load(Ordering::Relaxed),
                s.contended.load(Ordering::Relaxed),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Schedule;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn fork_runs_body_once_per_thread() {
        let hits = AtomicUsize::new(0);
        let distinct = Mutex::new(std::collections::HashSet::new());
        fork(ForkSpec::with_num_threads(4), |ctx| {
            hits.fetch_add(1, Ordering::SeqCst);
            distinct.lock().insert(ctx.thread_num());
            assert_eq!(ctx.num_threads(), 4);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4);
        assert_eq!(distinct.lock().len(), 4);
    }

    #[test]
    fn if_false_serializes() {
        fork(ForkSpec::new().num_threads(8).if_clause(false), |ctx| {
            assert_eq!(ctx.num_threads(), 1);
            assert_eq!(ctx.thread_num(), 0);
        });
    }

    #[test]
    fn team_of_one_still_supports_constructs() {
        let sum = AtomicU64::new(0);
        fork(ForkSpec::with_num_threads(1), |ctx| {
            ctx.ws_for(0..10, Schedule::dynamic(), false, |i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
            ctx.barrier();
            assert!(ctx.single(false, || ()).is_some());
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn workers_are_reused_across_regions() {
        // Warm the pool.
        fork(ForkSpec::with_num_threads(4), |_| {});
        let spawned_before = stats().workers_spawned.load(Ordering::Relaxed);
        for _ in 0..50 {
            fork(ForkSpec::with_num_threads(4), |_| {});
        }
        let spawned_after = stats().workers_spawned.load(Ordering::Relaxed);
        // Other tests run concurrently and may spawn workers of their own,
        // but 50 sequential same-size regions must not need 50 new teams'
        // worth of threads.
        assert!(
            spawned_after - spawned_before < 50 * 3,
            "pool failed to reuse workers: {spawned_before} -> {spawned_after}"
        );
    }

    #[test]
    fn hot_team_consecutive_forks_hit_the_cache() {
        // Run on a dedicated thread: the cache is per master thread, so
        // the counters below can only be disturbed by *this* thread.
        // Force-enable hot teams via the TLS knob — the suite must pass
        // even under ROMP_HOT_TEAMS=0 in the environment.
        std::thread::spawn(|| {
            icv::tls_override_mut(|o| o.hot_teams = Some(true));
            fork(ForkSpec::with_num_threads(3), |_| {});
            let before = stats().snapshot();
            for _ in 0..20 {
                fork(ForkSpec::with_num_threads(3), |_| {});
            }
            let d = before.delta(&stats().snapshot());
            assert!(
                d.hot_team_hits >= 20,
                "20 same-shape forks should all hit, saw {}",
                d.hot_team_hits
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn hot_team_disabled_runs_one_region_leases() {
        std::thread::spawn(|| {
            // Drive one-region leases hermetically through this thread's TLS
            // override: the global block stays untouched, so sibling
            // tests asserting hot-team hit counts never see a
            // hot_teams=false window.
            icv::TLS_OVERRIDE.with(|o| *o.borrow_mut() = None);
            icv::tls_override_mut(|o| o.hot_teams = Some(false));
            let before = stats().snapshot();
            let hits = AtomicUsize::new(0);
            for _ in 0..5 {
                fork(ForkSpec::with_num_threads(2), |_| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
            assert_eq!(hits.load(Ordering::SeqCst), 10);
            let d = before.delta(&stats().snapshot());
            // This thread contributed no hot activity; other test
            // threads may have, so only check our own forks landed.
            assert!(d.forks >= 5);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn panic_in_region_propagates_to_caller() {
        let r = std::panic::catch_unwind(|| {
            fork(ForkSpec::with_num_threads(4), |ctx| {
                if ctx.thread_num() == 2 {
                    panic!("worker exploded");
                }
                // Other threads park at a barrier; the abort flag must
                // release them.
                ctx.barrier();
            });
        });
        let payload = r.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "worker exploded");
        // The pool must still be usable afterwards.
        let ok = AtomicUsize::new(0);
        fork(ForkSpec::with_num_threads(4), |_| {
            ok.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ok.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn master_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            fork(ForkSpec::with_num_threads(2), |ctx| {
                if ctx.is_master() {
                    panic!("master exploded");
                }
            });
        });
        assert!(r.is_err());
    }

    #[test]
    fn nested_fork_serializes_by_default() {
        // max_active_levels defaults to 1.
        fork(ForkSpec::with_num_threads(2), |outer| {
            let outer_n = outer.num_threads();
            let outer_level = outer.level();
            fork(ForkSpec::with_num_threads(4), move |inner| {
                assert_eq!(inner.num_threads(), 1, "inner region must serialize");
                assert_eq!(inner.level(), outer_level + 1);
            });
            assert!(outer_n <= 2);
        });
    }

    #[test]
    fn borrowed_data_is_visible_and_writable() {
        let mut data = vec![0u64; 1000];
        let chunks: Vec<_> = data.chunks_mut(250).collect();
        let chunks = Mutex::new(chunks);
        fork(ForkSpec::with_num_threads(4), |_ctx| {
            // Each thread takes one disjoint chunk.
            let mine = chunks.lock().pop();
            if let Some(chunk) = mine {
                for (i, x) in chunk.iter_mut().enumerate() {
                    *x = i as u64;
                }
            }
        });
        for chunk in data.chunks(250) {
            for (i, &x) in chunk.iter().enumerate() {
                assert_eq!(x, i as u64);
            }
        }
    }

    #[test]
    fn proc_bind_clause_is_recorded_and_reported() {
        fork(
            ForkSpec::with_num_threads(2).proc_bind(ProcBind::Spread),
            |ctx| {
                assert_eq!(ctx.proc_bind(), ProcBind::Spread);
                assert_eq!(crate::api::omp_get_proc_bind(), ProcBind::Spread);
            },
        );
        // Without the clause the bind-var ICV shows through.
        fork(ForkSpec::with_num_threads(2), |ctx| {
            assert_eq!(ctx.proc_bind(), icv::current().proc_bind_for_level(0));
        });
    }

    #[test]
    fn teams_spec_forms_a_spread_league() {
        fork(ForkSpec::new().teams(2), |ctx| {
            assert_eq!(ctx.proc_bind(), ProcBind::Spread);
            let (num_teams, team_num) = ctx.league_position();
            assert_eq!(num_teams, ctx.num_threads());
            assert_eq!(team_num, ctx.thread_num());
        });
        // An explicit proc_bind clause beats the league's spread default.
        fork(ForkSpec::new().teams(2).proc_bind(ProcBind::Close), |ctx| {
            assert_eq!(ctx.proc_bind(), ProcBind::Close);
        });
    }

    #[test]
    fn home_shard_is_stable_and_in_range() {
        let n = shard_count();
        assert!(n >= 1);
        let a = pool().home_index();
        let b = pool().home_index();
        assert_eq!(a, b, "home shard must be memoized per thread");
        assert!(a < n);
    }

    #[test]
    fn released_workers_are_reacquired_from_the_home_shard() {
        // A fresh master thread: its one-region leases release workers
        // to its home shard, and the next acquire must find them there
        // instead of spawning (local-acquire counter moves, spawn
        // counter not).
        std::thread::spawn(|| {
            icv::tls_override_mut(|o| o.hot_teams = Some(false));
            fork(ForkSpec::with_num_threads(3), |_| {});
            let before = stats().snapshot();
            fork(ForkSpec::with_num_threads(3), |_| {});
            let d = before.delta(&stats().snapshot());
            // Concurrent tests may steal from us, so only assert that
            // the acquire path reused pooled workers (local or stolen)
            // rather than spawning a full team's worth.
            assert!(
                d.pool_acquires_local + d.pool_acquires_stolen >= 1,
                "second fork should reuse pooled workers: {d:?}"
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn steal_sweep_reaches_workers_in_foreign_shards() {
        // Masters on different OS threads hash to (generally) different
        // shards. Whatever shard the releases landed in, a later
        // acquire from any thread must be able to reach every idle
        // worker — the no-stranding guarantee of the sweep.
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    icv::tls_override_mut(|o| o.hot_teams = Some(false));
                    fork(ForkSpec::with_num_threads(2), |_| {});
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // One big acquire from a fresh thread: it must gather workers
        // across shards (or spawn, under the limit) and deliver.
        std::thread::spawn(|| {
            icv::tls_override_mut(|o| o.hot_teams = Some(false));
            let hits = AtomicUsize::new(0);
            fork(ForkSpec::with_num_threads(4), |_| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(hits.load(Ordering::SeqCst), 4);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn fork_from_task_during_hot_join_serializes() {
        // A deferred task that itself forks: if the master picks it up
        // while joining, the inner fork must not recycle the in-flight
        // hot team. Wherever the task lands — a worker mid-region or
        // the joining master — it observes itself at nesting level 1
        // (the join-time executor re-pushes the region info), so the
        // inner fork serializes identically everywhere.
        std::thread::spawn(|| {
            let inner_ran = AtomicUsize::new(0);
            for _ in 0..10 {
                fork(ForkSpec::with_num_threads(2), |ctx| {
                    if ctx.is_master() {
                        ctx.task(|| {
                            fork(ForkSpec::with_num_threads(2), |inner| {
                                assert_eq!(inner.num_threads(), 1);
                                inner_ran.fetch_add(1, Ordering::SeqCst);
                            });
                        });
                    }
                });
            }
            assert_eq!(inner_ran.load(Ordering::SeqCst), 10);
        })
        .join()
        .unwrap();
    }
}
