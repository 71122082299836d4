//! Explicit tasking: `task`, `taskwait`, `taskgroup`, and the task
//! dependence graph behind `depend(in/out/inout)`.
//!
//! Each team thread owns a deque of deferred tasks. A thread pushes new
//! tasks onto the *back* of its own deque and pops from the back
//! (LIFO — good locality for recursive decompositions); idle threads
//! steal from the *front* of a victim's deque (FIFO — steals the oldest,
//! largest-grained work). Stealing happens when a thread is waiting at a
//! barrier, in `taskwait`, or at the end of a `taskgroup`.
//!
//! Queues are `Mutex<VecDeque<…>>` rather than a lock-free Chase–Lev
//! deque. Tasks are not free: the repo benchmark's
//! `runtime.task_spawn_us` reads about 1.26 µs per task at two threads
//! (`sync-fine --trace 1`), and most of that is allocation and shared
//! counters around the queue, not the queue lock. A lock-free deque
//! would be one more hand-rolled atomic protocol; it waits until the
//! runtime's atomic protocols can be model-checked. The work-stealing
//! *policy* — LIFO pop, FIFO steal, bounded-retry randomized victim
//! selection guided by per-queue approximate lengths — matches the
//! classical design.
//!
//! ## Task dependences
//!
//! A task created with a [`TaskDeps`] record enters the per-team
//! **dependence graph** instead of going straight to a ready queue. The
//! graph applies the OpenMP serialization rules over storage addresses:
//!
//! * a task with an `in` dependence on `x` is ordered after the *last
//!   previously generated* task with an `out`/`inout` dependence on `x`;
//! * a task with an `out`/`inout` dependence on `x` is ordered after the
//!   last writer **and** after every `in` task generated since it.
//!
//! The bookkeeping is one table per team (`address → last writer +
//! pending readers`) plus one node per in-flight dependent task (unmet
//! predecessor count + successor list). A task with unmet predecessors
//! is *stalled* — held outside the ready queues — and is released onto
//! the completing thread's deque when its last predecessor finishes.
//! Tasks without dependences never touch the table and keep the old
//! zero-overhead path.
//!
//! OpenMP scopes `depend` ordering to sibling tasks of the same parent;
//! the per-team table is a conservative superset (it also orders tasks
//! of different parents that name the same address). That only ever
//! *adds* edges between earlier- and later-generated tasks, so legal
//! programs stay legal and the graph stays acyclic.
//!
//! ## Lifetimes
//!
//! Task closures may borrow from the enclosing parallel region (the
//! `'scope` parameter on [`crate::ThreadCtx`]). Internally the box is
//! transmuted to `'static`; this is sound because every code path that
//! completes a region — the implicit region-end barrier in
//! [`crate::pool`] — drains all pending tasks first (stalled tasks
//! included: `pending` counts them, and the barrier re-loops until it
//! reaches zero), and the master does not return from `fork` until
//! then, so borrowed data outlives every task. This is the same
//! argument `std::thread::scope` makes.

use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Storage addresses a task depends on — the `depend(in/out/inout: …)`
/// clause record. Addresses are taken from references at task-creation
/// time; two dependences conflict iff they name the same address and at
/// least one of them is `out`/`inout`.
#[derive(Debug, Clone, Default)]
pub struct TaskDeps {
    /// `depend(in: …)` addresses.
    pub(crate) ins: Vec<usize>,
    /// `depend(out: …)` and `depend(inout: …)` addresses (both install
    /// the task as the address's last writer, so they share a list).
    pub(crate) outs: Vec<usize>,
}

/// The address token of a reference: what the dependence table keys on.
fn addr_of<T: ?Sized>(x: &T) -> usize {
    x as *const T as *const () as usize
}

impl TaskDeps {
    /// Empty record (no ordering constraints).
    pub fn new() -> Self {
        TaskDeps::default()
    }

    /// Add a `depend(in: x)` dependence.
    pub fn input<T: ?Sized>(mut self, x: &T) -> Self {
        self.ins.push(addr_of(x));
        self
    }

    /// Add a `depend(out: x)` dependence.
    pub fn output<T: ?Sized>(mut self, x: &T) -> Self {
        self.outs.push(addr_of(x));
        self
    }

    /// Add a `depend(inout: x)` dependence (same serialization as
    /// `out`: orders against the last writer and all readers since).
    pub fn inout<T: ?Sized>(mut self, x: &T) -> Self {
        self.outs.push(addr_of(x));
        self
    }

    /// No dependences recorded?
    pub fn is_empty(&self) -> bool {
        self.ins.is_empty() && self.outs.is_empty()
    }
}

/// Completion counters a task must decrement when it finishes: its
/// parent's children count plus any enclosing taskgroups.
pub(crate) struct TaskHooks {
    pub parent_children: Arc<AtomicUsize>,
    pub groups: Vec<Arc<TaskGroup>>,
}

/// One `taskgroup` region's shared record: the count of live member
/// tasks (the thing the construct's end waits on) and the cancellation
/// flag raised by `cancel taskgroup`. Membership is transitive — a task
/// spawned while executing a member task joins the same groups, because
/// [`TaskSystem::execute`] swaps the executing thread's group stack to
/// the task's own group set for the duration of the body.
#[derive(Debug, Default)]
pub(crate) struct TaskGroup {
    /// Live member tasks (created and not yet finished/discarded).
    pub count: AtomicUsize,
    /// Raised by `cancel taskgroup`: members that have not started are
    /// discarded instead of executed.
    pub cancelled: AtomicBool,
}

pub(crate) struct RawTask {
    func: Box<dyn FnOnce() + Send + 'static>,
    hooks: TaskHooks,
    /// Dependence-graph node id, for tasks registered with a non-empty
    /// [`TaskDeps`] record; `None` for independent tasks.
    node: Option<u64>,
}

/// One ready deque plus a relaxed mirror of its length, so thieves can
/// skip obviously empty queues without taking the lock.
struct TaskQueue {
    deque: Mutex<VecDeque<RawTask>>,
    /// Approximate length: written under the deque lock, read without
    /// it. Staleness is benign — a miss only delays a steal, and every
    /// waiting loop retries.
    approx_len: AtomicUsize,
}

impl TaskQueue {
    fn new() -> Self {
        TaskQueue {
            deque: Mutex::new(VecDeque::new()),
            approx_len: AtomicUsize::new(0),
        }
    }
}

/// Per-address dependence state: who wrote it last, who has read it
/// since. Ids of finished tasks linger here harmlessly — registration
/// checks liveness against the node map.
#[derive(Default)]
struct AddrState {
    last_writer: Option<u64>,
    readers: Vec<u64>,
}

/// Scheduler node of one in-flight dependent task.
struct DepNode {
    /// Predecessors that have not completed yet.
    unmet: usize,
    /// Dependent tasks to notify when this one completes.
    succs: Vec<u64>,
}

/// The per-team dependence graph (single lock: dependence registration
/// and completion are rare, coarse events next to task bodies).
#[derive(Default)]
struct DepGraph {
    next_id: u64,
    table: HashMap<usize, AddrState>,
    nodes: HashMap<u64, DepNode>,
    /// Tasks held back by unmet predecessors, by node id. Undeferred
    /// tasks with dependences are *not* stored here — their spawning
    /// thread keeps them and polls [`DepGraph::nodes`] instead.
    stalled: HashMap<u64, RawTask>,
}

impl DepGraph {
    /// Register a task's dependence record, wiring it to its
    /// predecessors per the OpenMP serialization rules. Returns the new
    /// node id and whether the task is immediately ready.
    fn register(&mut self, deps: &TaskDeps) -> (u64, bool) {
        let id = self.next_id;
        self.next_id += 1;
        let mut preds: Vec<u64> = Vec::new();
        for &a in &deps.ins {
            let st = self.table.entry(a).or_default();
            if let Some(w) = st.last_writer {
                preds.push(w);
            }
            // A long run of in-only dependences with no intervening
            // writer would accumulate finished reader ids forever (only
            // an out/inout clears the list); prune the dead ones once
            // the list is long enough for the retain to amortize.
            if st.readers.len() >= 64 {
                st.readers.retain(|r| self.nodes.contains_key(r));
            }
            st.readers.push(id);
        }
        for &a in &deps.outs {
            let st = self.table.entry(a).or_default();
            if let Some(w) = st.last_writer {
                preds.push(w);
            }
            preds.extend(st.readers.iter().copied());
            st.last_writer = Some(id);
            st.readers.clear();
        }
        preds.sort_unstable();
        preds.dedup();
        // An address in both lists would make the task its own reader.
        preds.retain(|&p| p != id);
        let mut unmet = 0;
        for p in &preds {
            // Finished predecessors have left the node map: no edge.
            if let Some(node) = self.nodes.get_mut(p) {
                node.succs.push(id);
                unmet += 1;
            }
        }
        self.nodes.insert(
            id,
            DepNode {
                unmet,
                succs: Vec::new(),
            },
        );
        (id, unmet == 0)
    }
}

/// Per-team task state.
pub(crate) struct TaskSystem {
    queues: Vec<TaskQueue>,
    /// Tasks created and not yet finished, team-wide (stalled included).
    pub pending: AtomicUsize,
    deps: Mutex<DepGraph>,
    /// Raised by `cancel parallel`: every not-yet-started task of the
    /// region is discarded instead of executed (OpenMP lets an
    /// implementation discard tasks that have not begun execution when
    /// their binding region is cancelled). Cleared on recycle.
    pub(crate) cancel_all: AtomicBool,
}

impl std::fmt::Debug for TaskSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskSystem")
            .field("queues", &self.queues.len())
            .field("pending", &self.pending.load(Ordering::Relaxed))
            .finish()
    }
}

impl TaskSystem {
    pub(crate) fn new(size: usize) -> Self {
        TaskSystem {
            queues: (0..size).map(|_| TaskQueue::new()).collect(),
            pending: AtomicUsize::new(0),
            deps: Mutex::new(DepGraph::default()),
            cancel_all: AtomicBool::new(false),
        }
    }

    /// Account a new task in the completion counters (team pending,
    /// parent children, enclosing taskgroups).
    fn account(&self, task: &RawTask) {
        self.pending.fetch_add(1, Ordering::AcqRel);
        task.hooks.parent_children.fetch_add(1, Ordering::AcqRel);
        for g in &task.hooks.groups {
            g.count.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Put a ready task on `thread_num`'s deque.
    fn enqueue(&self, thread_num: usize, task: RawTask) {
        let q = &self.queues[thread_num];
        let mut deque = q.deque.lock();
        deque.push_back(task);
        q.approx_len.store(deque.len(), Ordering::Relaxed);
    }

    /// Defer a task onto `thread_num`'s deque, or into the dependence
    /// graph if `deps` holds it back.
    ///
    /// # Safety
    ///
    /// `task` has been lifetime-erased to `'static`. The caller must
    /// guarantee the data it borrows outlives the enclosing parallel
    /// region (enforced by the `'scope` bound on `ThreadCtx::task` plus
    /// the region-end drain).
    pub(crate) unsafe fn push(&self, thread_num: usize, mut task: RawTask, deps: TaskDeps) {
        crate::stats::bump(&crate::stats::stats().tasks_spawned);
        self.account(&task);
        if deps.is_empty() {
            self.enqueue(thread_num, task);
            return;
        }
        let mut g = self.deps.lock();
        let (id, ready) = g.register(&deps);
        task.node = Some(id);
        if ready {
            drop(g);
            self.enqueue(thread_num, task);
        } else {
            crate::stats::bump(&crate::stats::stats().tasks_dep_stalled);
            g.stalled.insert(id, task);
        }
    }

    /// Run a task *undeferred* (`if(false)`, `final`, included tasks):
    /// the encountering thread executes it inline, after first helping
    /// with other tasks until the dependence graph clears its
    /// predecessors. The dependence record still registers, so later
    /// siblings order against this task normally.
    ///
    /// # Safety
    ///
    /// As for [`push`](Self::push).
    pub(crate) unsafe fn run_undeferred(
        &self,
        thread_num: usize,
        seed: &mut u64,
        mut task: RawTask,
        deps: TaskDeps,
    ) {
        crate::stats::bump(&crate::stats::stats().tasks_spawned);
        crate::stats::bump(&crate::stats::stats().tasks_inline);
        self.account(&task);
        if !deps.is_empty() {
            let id = {
                let mut g = self.deps.lock();
                let (id, ready) = g.register(&deps);
                if !ready {
                    crate::stats::bump(&crate::stats::stats().tasks_dep_stalled);
                }
                let _ = ready;
                id
            };
            task.node = Some(id);
            // Help execute other tasks until our predecessors are done.
            // Progress is guaranteed: predecessors were generated
            // earlier, the graph is acyclic, and any stalled ancestor
            // chain bottoms out at a task that is ready or running.
            self.work_until(thread_num, seed, || {
                let g = self.deps.lock();
                g.nodes.get(&id).map(|n| n.unmet).unwrap_or(0) == 0
            });
        }
        self.execute(thread_num, task);
    }

    /// The runtime's waiting loop: execute (and steal) tasks until
    /// `done()` holds, with escalating idle backoff — spin, then
    /// yield, then a short sleep — so a long wait on a task running
    /// elsewhere does not burn a core. Every construct that waits on
    /// task completion (`taskwait`, `taskgroup`, both barriers, the
    /// undeferred dependence wait) funnels through here.
    pub(crate) fn work_until(
        &self,
        thread_num: usize,
        seed: &mut u64,
        mut done: impl FnMut() -> bool,
    ) {
        let mut idle_spins = 0u32;
        while !done() {
            if let Some(t) = self.pop_or_steal(thread_num, seed) {
                self.execute(thread_num, t);
                idle_spins = 0;
            } else {
                idle_spins += 1;
                if idle_spins > 1024 {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                } else if idle_spins > 64 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Grab one task: own deque from the back, else steal from the
    /// front of a victim's deque. Victims are chosen by bounded-retry
    /// randomized picks, consulting each queue's approximate length
    /// before locking; a final deterministic sweep takes every lock
    /// unconditionally (a relaxed length read can be stale), keeping
    /// the old no-task-left-behind guarantee.
    pub(crate) fn pop_or_steal(&self, thread_num: usize, seed: &mut u64) -> Option<RawTask> {
        // Chaos: delay-only site (panicking here would escape the
        // joining master's catch scope) — a stall between a victim scan
        // and the sweep shifts who executes what.
        let _ = crate::chaos::chaos_point!(crate::chaos::Site::TaskSteal);
        let own = &self.queues[thread_num];
        // Pushes to queue i come only from thread i itself (spawns and
        // dependence releases both target the acting thread's deque), so
        // our own approximate length can never miss work of ours.
        if own.approx_len.load(Ordering::Relaxed) > 0 {
            let mut deque = own.deque.lock();
            let t = deque.pop_back();
            own.approx_len.store(deque.len(), Ordering::Relaxed);
            if t.is_some() {
                return t;
            }
        }
        let n = self.queues.len();
        if n <= 1 {
            return None;
        }
        let steal_from = |v: usize, skip_empty: bool| -> Option<RawTask> {
            if v == thread_num {
                return None;
            }
            let q = &self.queues[v];
            if skip_empty && q.approx_len.load(Ordering::Relaxed) == 0 {
                return None;
            }
            let mut deque = q.deque.lock();
            let t = deque.pop_front();
            q.approx_len.store(deque.len(), Ordering::Relaxed);
            if t.is_some() {
                crate::stats::bump(&crate::stats::stats().tasks_stolen);
            }
            t
        };
        // Bounded randomized picks, skipping approximately-empty queues:
        // contention-friendly (no convoy on a common scan order) and
        // cheap when most queues are empty.
        for _ in 0..n {
            // xorshift for a cheap randomized victim.
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            if let Some(t) = steal_from((*seed as usize) % n, true) {
                return Some(t);
            }
        }
        // Sweep fallback: random picks can repeat, and a relaxed length
        // read can be momentarily stale, so make one full pass taking
        // every lock — an enqueued task is never missed by this call's
        // conclusion (the old linear scan's guarantee).
        for k in 1..n {
            if let Some(t) = steal_from((thread_num + k) % n, false) {
                return Some(t);
            }
        }
        None
    }

    /// Run one task to completion on the current thread, maintaining the
    /// task-frame TLS so nested `task`/`taskwait` see the right parent,
    /// and releasing dependence-graph successors when it finishes.
    ///
    /// **Cancellation**: a task whose parallel region (`cancel_all`) or
    /// any enclosing taskgroup was cancelled before it started is
    /// *discarded* — its body never runs, but it still flows through the
    /// completion bookkeeping (dependence-node release, parent/group/
    /// pending decrements), so waiting constructs drain and dependence
    /// successors are released (to be discarded in turn). This is how
    /// queued *and* dependence-stalled tasks of a cancelled taskgroup
    /// die without executing.
    ///
    /// **Group transitivity**: the executing thread's taskgroup stack is
    /// swapped to the task's own group set for the duration of the body,
    /// so tasks spawned by a member (on whatever thread stole it) join
    /// the same groups — and tasks spawned by an unrelated task executed
    /// while *helping* inside a taskgroup wait do not leak into it.
    pub(crate) fn execute(&self, thread_num: usize, task: RawTask) {
        let discard = self.cancel_all.load(Ordering::Relaxed)
            || task
                .hooks
                .groups
                .iter()
                .any(|g| g.cancelled.load(Ordering::Relaxed));
        let frame = Arc::new(TaskFrame {
            children: Arc::new(AtomicUsize::new(0)),
        });
        let prev = CURRENT_FRAME.with(|c| c.replace(Some(frame.clone())));
        let prev_groups = GROUP_STACK
            .with(|g| std::mem::replace(&mut *g.borrow_mut(), task.hooks.groups.clone()));
        // Run; panics propagate to the executing thread's region handler,
        // but the counters must be consistent either way.
        struct Finish<'a> {
            sys: &'a TaskSystem,
            hooks: TaskHooks,
            node: Option<u64>,
            thread_num: usize,
            prev: Option<Arc<TaskFrame>>,
            prev_groups: Vec<Arc<TaskGroup>>,
        }
        impl Drop for Finish<'_> {
            fn drop(&mut self) {
                CURRENT_FRAME.with(|c| *c.borrow_mut() = self.prev.take());
                GROUP_STACK.with(|g| *g.borrow_mut() = std::mem::take(&mut self.prev_groups));
                if let Some(id) = self.node {
                    self.sys.complete_node(id, self.thread_num);
                }
                self.hooks.parent_children.fetch_sub(1, Ordering::AcqRel);
                for g in &self.hooks.groups {
                    g.count.fetch_sub(1, Ordering::AcqRel);
                }
                self.sys.pending.fetch_sub(1, Ordering::AcqRel);
            }
        }
        let _finish = Finish {
            sys: self,
            hooks: task.hooks,
            node: task.node,
            thread_num,
            prev,
            prev_groups,
        };
        if discard {
            crate::stats::bump(&crate::stats::stats().tasks_discarded);
            drop(task.func);
        } else {
            crate::stats::bump(&crate::stats::stats().tasks_executed);
            // Chaos: panic/delay in place of the body. Legal here —
            // every execute() caller runs under a catch_unwind (workers
            // inside run_region, the joining master through
            // execute_joining_task), and the Finish guard above keeps
            // the completion ledger consistent through an unwind.
            let _ = crate::chaos::chaos_point!(crate::chaos::Site::TaskExecute);
            (task.func)();
        }
    }

    /// Remove a finished task's dependence node and release successors
    /// whose last predecessor this was onto the finisher's deque.
    fn complete_node(&self, id: u64, thread_num: usize) {
        let mut released = Vec::new();
        {
            let mut g = self.deps.lock();
            // A finishing task's node is live by construction (only
            // this completion removes it). But this runs inside the
            // `Finish` guard's Drop — possibly *during an unwind* — and
            // a panic in Drop-during-unwind aborts the whole process,
            // so a torn graph degrades to a warning instead: successors
            // stay unreleased, and the abort/purge path (the only way a
            // graph gets torn) discards them anyway.
            let Some(node) = g.nodes.remove(&id) else {
                drop(g);
                eprintln!(
                    "ROMP WARNING: dependence node {id} of a finishing task \
                     was already removed; successors not released"
                );
                return;
            };
            for s in node.succs {
                if let Some(sn) = g.nodes.get_mut(&s) {
                    sn.unmet -= 1;
                    if sn.unmet == 0 {
                        // Absent from `stalled` = an undeferred task
                        // whose spawner is polling; it will notice.
                        if let Some(t) = g.stalled.remove(&s) {
                            released.push(t);
                        }
                    }
                }
            }
        }
        for t in released {
            self.enqueue(thread_num, t);
        }
    }

    /// Execute available tasks until none can be found. The runtime's
    /// waiting loops go further (they also spin on team-wide `pending`
    /// — see `ThreadCtx::help_tasks_while_pending`); this one-shot
    /// drain remains for the unit tests below.
    #[cfg(test)]
    pub(crate) fn drain(&self, thread_num: usize, seed: &mut u64) {
        while let Some(t) = self.pop_or_steal(thread_num, seed) {
            self.execute(thread_num, t);
        }
    }

    /// Total tasks not yet finished (ready, running, or stalled).
    pub(crate) fn pending(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// Drop every leftover task — ready or stalled — without running it.
    ///
    /// An aborted (panicked) region can end with never-run tasks still
    /// queued or dependence-stalled. Their closures may borrow the
    /// forking caller's `'env` frame (the lifetime is erased at spawn),
    /// so they must be dropped on the master *before* `fork` returns,
    /// while that frame is still alive — not later, on whichever worker
    /// thread happens to drop the last `Arc<Team>`.
    ///
    /// Contract: caller is the master after the join (every worker has
    /// signalled completion — no concurrent task activity).
    pub(crate) fn purge(&self) {
        let mut dropped = 0u64;
        for q in &self.queues {
            let mut d = q.deque.lock();
            dropped += d.len() as u64;
            d.clear();
            q.approx_len.store(0, Ordering::Relaxed);
        }
        let mut g = self.deps.lock();
        dropped += g.stalled.len() as u64;
        g.stalled.clear();
        g.table.clear();
        g.nodes.clear();
        drop(g);
        // Close the task ledger: spawned == executed + discarded +
        // purged must hold once a region fully settles (the chaos soak
        // asserts it), so every never-run closure is counted here.
        crate::stats::stats()
            .tasks_purged
            .fetch_add(dropped, Ordering::Relaxed);
        // The dropped tasks never decrement `pending` through the
        // execute path; zero it so nothing spins on the count.
        self.pending.store(0, Ordering::Release);
        self.cancel_all.store(false, Ordering::Release);
    }

    /// Recycle the task system for a hot team's next region: evict the
    /// dependence table's finished-task residue (addresses of dead
    /// writers/readers accumulate across regions otherwise) and rewind
    /// the node id counter. Deques are already empty — a region cannot
    /// end with `pending > 0` — so only the graph needs clearing.
    ///
    /// Contract: caller is the hot-team master between join and ring
    /// (no concurrent task activity).
    pub(crate) fn recycle(&self) {
        debug_assert_eq!(self.pending(), 0, "recycling a team with live tasks");
        let mut g = self.deps.lock();
        g.table.clear();
        g.nodes.clear();
        g.stalled.clear();
        g.next_id = 0;
        drop(g);
        self.cancel_all.store(false, Ordering::Relaxed);
    }
}

/// The dynamically enclosing explicit task (for `taskwait` semantics).
pub(crate) struct TaskFrame {
    pub children: Arc<AtomicUsize>,
}

thread_local! {
    pub(crate) static CURRENT_FRAME: std::cell::RefCell<Option<Arc<TaskFrame>>> =
        const { std::cell::RefCell::new(None) };
    /// Taskgroup nesting stack for the current thread. While an
    /// explicit task executes, this holds the *task's* group set (see
    /// [`TaskSystem::execute`]), so membership is transitive under
    /// stealing and cancellation finds the right innermost group.
    pub(crate) static GROUP_STACK: std::cell::RefCell<Vec<Arc<TaskGroup>>> =
        const { std::cell::RefCell::new(Vec::new()) };
    /// Are we dynamically inside a `final` task? Descendants of a final
    /// task are *included* tasks: undeferred and themselves final.
    pub(crate) static IN_FINAL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Is the current task a final task (so children must be included)?
pub(crate) fn in_final() -> bool {
    IN_FINAL.with(|f| f.get())
}

/// RAII for the `final` flag around a final task's body.
pub(crate) struct FinalGuard {
    prev: bool,
}

impl FinalGuard {
    pub(crate) fn enter() -> Self {
        let prev = IN_FINAL.with(|f| f.replace(true));
        FinalGuard { prev }
    }
}

impl Drop for FinalGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_FINAL.with(|f| f.set(prev));
    }
}

/// Children counter of the current task (explicit task frame if inside
/// one, else the given implicit-task counter).
pub(crate) fn current_children(implicit: &Arc<AtomicUsize>) -> Arc<AtomicUsize> {
    CURRENT_FRAME.with(|c| {
        c.borrow()
            .as_ref()
            .map(|f| f.children.clone())
            .unwrap_or_else(|| implicit.clone())
    })
}

/// Snapshot of the enclosing taskgroup records (innermost last).
pub(crate) fn current_groups() -> Vec<Arc<TaskGroup>> {
    GROUP_STACK.with(|g| g.borrow().clone())
}

/// The innermost taskgroup of the current task, if any — the target of
/// `cancel taskgroup` / `cancellation point taskgroup`.
pub(crate) fn innermost_group() -> Option<Arc<TaskGroup>> {
    GROUP_STACK.with(|g| g.borrow().last().cloned())
}

/// Build a lifetime-erased task.
///
/// # Safety
///
/// See [`TaskSystem::push`].
pub(crate) unsafe fn make_raw_task<'a>(
    f: Box<dyn FnOnce() + Send + 'a>,
    hooks: TaskHooks,
) -> RawTask {
    // SAFETY: contract delegated to the caller (region-end drain).
    let func: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(f) };
    RawTask {
        func,
        hooks,
        node: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hooks() -> (TaskHooks, Arc<AtomicUsize>) {
        let parent = Arc::new(AtomicUsize::new(0));
        (
            TaskHooks {
                parent_children: parent.clone(),
                groups: vec![],
            },
            parent,
        )
    }

    fn raw(f: impl FnOnce() + Send + 'static) -> (RawTask, Arc<AtomicUsize>) {
        let (h, parent) = hooks();
        (unsafe { make_raw_task(Box::new(f), h) }, parent)
    }

    #[test]
    fn push_execute_decrements_counters() {
        let sys = TaskSystem::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        let r2 = ran.clone();
        let (task, parent) = raw(move || {
            r2.fetch_add(1, Ordering::SeqCst);
        });
        unsafe { sys.push(0, task, TaskDeps::new()) };
        assert_eq!(sys.pending(), 1);
        assert_eq!(parent.load(Ordering::SeqCst), 1);
        let mut seed = 1;
        sys.drain(0, &mut seed);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(sys.pending(), 0);
        assert_eq!(parent.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn lifo_pop_fifo_steal() {
        let sys = TaskSystem::new(2);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let order = order.clone();
            let (t, _p) = raw(move || {
                order.lock().push(i);
            });
            unsafe { sys.push(0, t, TaskDeps::new()) };
        }
        // Owner pops the most recent first.
        let mut seed = 1;
        let t = sys.pop_or_steal(0, &mut seed).unwrap();
        sys.execute(0, t);
        assert_eq!(*order.lock(), vec![2]);
        // Thief steals the oldest.
        let mut seed2 = 99;
        let t = sys.pop_or_steal(1, &mut seed2).unwrap();
        sys.execute(1, t);
        assert_eq!(*order.lock(), vec![2, 0]);
    }

    #[test]
    fn counters_restored_even_on_panic() {
        let sys = TaskSystem::new(1);
        let (t, parent) = raw(|| panic!("task boom"));
        unsafe { sys.push(0, t, TaskDeps::new()) };
        let mut seed = 1;
        let task = sys.pop_or_steal(0, &mut seed).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sys.execute(0, task)));
        assert!(r.is_err());
        assert_eq!(sys.pending(), 0);
        assert_eq!(parent.load(Ordering::SeqCst), 0);
        assert!(CURRENT_FRAME.with(|c| c.borrow().is_none()));
    }

    #[test]
    fn group_counters_tracked() {
        let sys = TaskSystem::new(1);
        let group = Arc::new(TaskGroup::default());
        let parent = Arc::new(AtomicUsize::new(0));
        let t = unsafe {
            make_raw_task(
                Box::new(|| {}),
                TaskHooks {
                    parent_children: parent.clone(),
                    groups: vec![group.clone()],
                },
            )
        };
        unsafe { sys.push(0, t, TaskDeps::new()) };
        assert_eq!(group.count.load(Ordering::SeqCst), 1);
        let mut seed = 1;
        sys.drain(0, &mut seed);
        assert_eq!(group.count.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn cancelled_group_discards_queued_and_stalled_tasks() {
        let sys = TaskSystem::new(1);
        let group = Arc::new(TaskGroup::default());
        let parent = Arc::new(AtomicUsize::new(0));
        let ran = Arc::new(AtomicUsize::new(0));
        let x = 0u8;
        // One ready task and one dependence-stalled behind it, both in
        // the group.
        for _ in 0..2 {
            let ran = ran.clone();
            let t = unsafe {
                make_raw_task(
                    Box::new(move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                    }),
                    TaskHooks {
                        parent_children: parent.clone(),
                        groups: vec![group.clone()],
                    },
                )
            };
            unsafe { sys.push(0, t, TaskDeps::new().inout(&x)) };
        }
        group.cancelled.store(true, Ordering::SeqCst);
        let mut seed = 1;
        sys.drain(0, &mut seed);
        // Both flowed through the bookkeeping without running a body,
        // and the stalled one was released by the discard of the first.
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        assert_eq!(sys.pending(), 0);
        assert_eq!(group.count.load(Ordering::SeqCst), 0);
        assert_eq!(parent.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn cancel_all_discards_everything_not_started() {
        let sys = TaskSystem::new(1);
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            let ran = ran.clone();
            let (t, _p) = raw(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
            unsafe { sys.push(0, t, TaskDeps::new()) };
        }
        sys.cancel_all.store(true, Ordering::SeqCst);
        let mut seed = 1;
        sys.drain(0, &mut seed);
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        assert_eq!(sys.pending(), 0);
    }

    #[test]
    fn out_then_in_stalls_reader_until_writer_finishes() {
        let sys = TaskSystem::new(1);
        let x = 0u8; // address token
        let log = Arc::new(Mutex::new(Vec::new()));
        let (l1, l2) = (log.clone(), log.clone());
        let (writer, _p1) = raw(move || l1.lock().push("w"));
        let (reader, _p2) = raw(move || l2.lock().push("r"));
        unsafe { sys.push(0, writer, TaskDeps::new().output(&x)) };
        unsafe { sys.push(0, reader, TaskDeps::new().input(&x)) };
        // Only the writer is ready: the reader is stalled.
        let mut seed = 1;
        let t = sys.pop_or_steal(0, &mut seed).unwrap();
        assert!(sys.pop_or_steal(0, &mut seed).is_none());
        sys.execute(0, t);
        // Completion released the reader.
        let t = sys.pop_or_steal(0, &mut seed).unwrap();
        sys.execute(0, t);
        assert_eq!(*log.lock(), vec!["w", "r"]);
        assert_eq!(sys.pending(), 0);
    }

    #[test]
    fn readers_run_concurrently_but_block_next_writer() {
        let sys = TaskSystem::new(1);
        let x = 0u8;
        let log = Arc::new(Mutex::new(Vec::new()));
        let mk = |tag: &'static str, log: &Arc<Mutex<Vec<&'static str>>>| {
            let log = log.clone();
            raw(move || log.lock().push(tag)).0
        };
        unsafe {
            sys.push(0, mk("w1", &log), TaskDeps::new().output(&x));
            sys.push(0, mk("r1", &log), TaskDeps::new().input(&x));
            sys.push(0, mk("r2", &log), TaskDeps::new().input(&x));
            sys.push(0, mk("w2", &log), TaskDeps::new().inout(&x));
        }
        let mut seed = 1;
        sys.drain(0, &mut seed);
        let order = log.lock().clone();
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], "w1");
        assert_eq!(order[3], "w2");
        // r1/r2 in between, either order.
        assert!(order[1..3].contains(&"r1") && order[1..3].contains(&"r2"));
    }

    #[test]
    fn independent_addresses_do_not_order() {
        let sys = TaskSystem::new(1);
        let (x, y) = (0u8, 0u8);
        let (a, _pa) = raw(|| {});
        let (b, _pb) = raw(|| {});
        unsafe { sys.push(0, a, TaskDeps::new().output(&x)) };
        unsafe { sys.push(0, b, TaskDeps::new().output(&y)) };
        // Both ready immediately.
        let mut seed = 1;
        assert!(sys.pop_or_steal(0, &mut seed).is_some());
        assert!(sys.pop_or_steal(0, &mut seed).is_some());
    }

    #[test]
    fn pending_counts_stalled_tasks() {
        let sys = TaskSystem::new(1);
        let x = 0u8;
        let (a, _pa) = raw(|| {});
        let (b, _pb) = raw(|| {});
        unsafe { sys.push(0, a, TaskDeps::new().output(&x)) };
        unsafe { sys.push(0, b, TaskDeps::new().output(&x)) };
        assert_eq!(sys.pending(), 2);
        let mut seed = 1;
        sys.drain(0, &mut seed);
        assert_eq!(sys.pending(), 0);
    }

    #[test]
    fn undeferred_waits_for_predecessors() {
        let sys = TaskSystem::new(1);
        let x = 0u8;
        let log = Arc::new(Mutex::new(Vec::new()));
        let (l1, l2) = (log.clone(), log.clone());
        let (writer, _p1) = raw(move || l1.lock().push("w"));
        unsafe { sys.push(0, writer, TaskDeps::new().output(&x)) };
        let (undeferred, _p2) = raw(move || l2.lock().push("u"));
        let mut seed = 1;
        unsafe { sys.run_undeferred(0, &mut seed, undeferred, TaskDeps::new().input(&x)) };
        // The undeferred task had to help-execute the writer first.
        assert_eq!(*log.lock(), vec!["w", "u"]);
        assert_eq!(sys.pending(), 0);
    }

    #[test]
    fn same_address_in_and_out_is_not_a_self_cycle() {
        let sys = TaskSystem::new(1);
        let x = 0u8;
        let (t, _p) = raw(|| {});
        unsafe { sys.push(0, t, TaskDeps::new().input(&x).output(&x)) };
        let mut seed = 1;
        assert!(sys.pop_or_steal(0, &mut seed).is_some(), "must be ready");
    }
}
