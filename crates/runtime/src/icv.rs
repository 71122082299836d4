//! Internal control variables (ICVs), OpenMP 5.2 §2.
//!
//! ICVs belong to a *data environment*, as in libomp's per-task
//! `td_icvs`: every implicit and explicit task sees one immutable
//! [`Icvs`] block behind an `Arc`.
//!
//! * The **initial task** sees the global block, built from the `OMP_*`
//!   environment (see [`crate::env`]) and changed by [`with_global_mut`].
//! * A **fork** hands the encountering task's block to the new team's
//!   implicit tasks; an **explicit task** takes its generating task's.
//! * `omp_set_*` and [`set_local`] give the *calling* task a modified
//!   copy, seen by the tasks and regions it generates afterwards and by
//!   nobody else: not its siblings, its parent, or the thread's next
//!   region.
//!
//! A task that set nothing holds no block of its own and reads its
//! innermost team's, so creating it copies nothing and touches no
//! reference count; reading an ICV copies nothing either.

use crate::sched::Schedule;
use parking_lot::RwLock;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// How threads wait at barriers and for work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitPolicy {
    /// Spin aggressively (`OMP_WAIT_POLICY=active`): lowest latency,
    /// burns CPU.
    Active,
    /// Park almost immediately (`OMP_WAIT_POLICY=passive`).
    Passive,
    /// Spin, then yield, then park (the default).
    Hybrid,
}

/// Thread-affinity policy (`OMP_PROC_BIND` / `proc_bind` clause). The
/// policy is **enforced** where the platform allows: at fork time the
/// team partitions its master's `OMP_PLACES` slice per this policy and
/// each thread is pinned with `sched_setaffinity` (see
/// [`crate::affinity`]); where the syscall is unavailable the policy
/// degrades to advisory — counted and warned once, never fatal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcBind {
    /// No binding requested.
    False,
    /// Bind, placement unspecified.
    True,
    /// Pack threads close to the master.
    Close,
    /// Spread threads across places.
    Spread,
    /// Keep threads on the master's place.
    Master,
}

/// The ICV block.
#[derive(Debug, Clone)]
pub struct Icvs {
    /// `nthreads-var`: requested team sizes per nesting level
    /// (`OMP_NUM_THREADS=4,2` means 4-thread outer teams, 2-thread inner).
    /// Empty = use the hardware concurrency.
    pub nthreads: Vec<usize>,
    /// `dyn-var`: may the runtime shrink teams under load?
    pub dynamic: bool,
    /// `max-active-levels-var`: nesting depth that may still fork.
    pub max_active_levels: usize,
    /// `thread-limit-var`: hard cap on pool size.
    pub thread_limit: usize,
    /// `run-sched-var`: what `schedule(runtime)` resolves to.
    pub run_sched: Schedule,
    /// `wait-policy-var`.
    pub wait_policy: WaitPolicy,
    /// `bind-var`: requested thread-affinity policy per nesting level
    /// (`OMP_PROC_BIND=spread,close` means spread the outer team over
    /// the places, pack each inner team close to its master). Empty =
    /// no binding requested ([`ProcBind::False`] at every level).
    pub proc_bind: Vec<ProcBind>,
    /// `place-partition-var` seed: the parsed `OMP_PLACES` list (each
    /// place a set of CPU ids). `None` = no places configured; binding
    /// requests then fall back to one place per hardware thread.
    pub places: Option<Arc<Vec<Vec<usize>>>>,
    /// `stacksize-var` (`OMP_STACKSIZE`), bytes; applied to spawned
    /// workers.
    pub stacksize: Option<usize>,
    /// May the master **keep** its team's lease between consecutive
    /// parallel regions — workers stay bound to their doorbells, so the
    /// next same-shape fork is a ring instead of a pool round-trip
    /// (romp extension, `ROMP_HOT_TEAMS=true|false`, default true; the
    /// analogue of libomp's `KMP_HOT_TEAMS_MODE`). When false every
    /// fork still runs through the doorbell protocol, on a lease that
    /// ends with its one region.
    pub hot_teams: bool,
    /// `cancel-var` (`OMP_CANCELLATION`, default false): is the
    /// cancellation machinery armed? When false, `cancel` is a no-op
    /// and every `cancellation point` reports "not cancelled", per the
    /// spec. Programs that must arm it regardless of the environment
    /// use [`set_local`].
    pub cancellation: bool,
}

/// Hardware concurrency with a sane floor. Cached **for the process
/// lifetime**: the runtime consults this on every fork (team sizing,
/// oversubscription heuristics, the default `thread-limit-var`), and
/// `std::thread::available_parallelism` re-reads the cgroup quota files
/// on every call — ~10µs of syscalls that would dwarf a hot fork. The
/// deliberate consequence is that a cgroup CPU-quota change at runtime
/// (container resize) is not observed; set `OMP_NUM_THREADS` /
/// `OMP_THREAD_LIMIT` explicitly where that matters.
pub fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

impl Default for Icvs {
    fn default() -> Self {
        Icvs {
            nthreads: Vec::new(),
            dynamic: false,
            max_active_levels: 1,
            thread_limit: 4 * hardware_threads().max(64),
            run_sched: Schedule::Static { chunk: None },
            wait_policy: WaitPolicy::Hybrid,
            proc_bind: Vec::new(),
            places: None,
            stacksize: None,
            hot_teams: true,
            cancellation: false,
        }
    }
}

impl Icvs {
    /// Requested team size for a region starting at nesting `level`
    /// (0 = outermost).
    pub fn nthreads_for_level(&self, level: usize) -> usize {
        if self.nthreads.is_empty() {
            hardware_threads()
        } else {
            let idx = level.min(self.nthreads.len() - 1);
            self.nthreads[idx].max(1)
        }
    }

    /// Requested affinity policy for a region starting at nesting
    /// `level` (same per-level-list-then-saturate rule as
    /// [`Self::nthreads_for_level`]; empty list = no binding).
    pub fn proc_bind_for_level(&self, level: usize) -> ProcBind {
        if self.proc_bind.is_empty() {
            ProcBind::False
        } else {
            self.proc_bind[level.min(self.proc_bind.len() - 1)]
        }
    }
}

/// The initial task's ICVs, built from the `OMP_*` environment on first
/// use.
fn global() -> &'static RwLock<Arc<Icvs>> {
    static GLOBAL: OnceLock<RwLock<Arc<Icvs>>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(Arc::new(crate::env::icvs_from_env())))
}

/// Bumped by every [`with_global_mut`], so each thread can keep the
/// global block's `Arc` in `SEEN` without taking the lock per read.
static GLOBAL_GEN: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static SEEN: RefCell<Option<(u64, Arc<Icvs>)>> = const { RefCell::new(None) };
}

/// Run `f` on the global block: one atomic load, plus the lock only
/// when [`with_global_mut`] has run since this thread last looked. A
/// call from inside `f` reads the block the outer call reads.
fn with_global<R>(f: impl FnOnce(&Arc<Icvs>) -> R) -> R {
    let gen = GLOBAL_GEN.load(Ordering::Acquire);
    SEEN.with(|seen| {
        if let Ok(mut seen) = seen.try_borrow_mut() {
            if !matches!(&*seen, Some((at, _)) if *at == gen) {
                *seen = Some((gen, global().read().clone()));
            }
        }
        f(&seen.borrow().as_ref().expect("filled above").1)
    })
}

/// Run `f` on the calling task's ICVs, in place: the task's own block
/// if it set one, else its innermost team's, else the global block.
/// `f` runs with that state borrowed: it must not start a region.
pub(crate) fn with_current<R>(f: impl FnOnce(&Arc<Icvs>) -> R) -> R {
    crate::task::with_own_icvs(|own| match own {
        Some(icvs) => f(icvs),
        None => crate::ctx::REGION_STACK.with(|s| match s.borrow().last() {
            Some(r) => f(&r.team.snap().icvs),
            None => with_global(f),
        }),
    })
}

/// The calling task's `wait-policy-var`, read in place.
pub(crate) fn wait_policy() -> WaitPolicy {
    with_current(|i| i.wait_policy)
}

/// The calling task's ICVs.
pub fn current() -> Arc<Icvs> {
    with_current(Arc::clone)
}

/// Mutate the global block, copy on write: every later top-level fork
/// from a task that set nothing inherits the change; teams and tasks
/// holding the old block keep it.
pub fn with_global_mut<R>(f: impl FnOnce(&mut Icvs) -> R) -> R {
    let mut icvs = global().write();
    let out = f(Arc::make_mut(&mut icvs));
    GLOBAL_GEN.fetch_add(1, Ordering::Release);
    out
}

/// Apply `f` to the calling task's ICVs, copy on write (in place if
/// nothing else holds the task's own block). The `omp_set_*` routines
/// go through here.
pub(crate) fn set(f: impl FnOnce(&mut Icvs)) {
    let mut own = crate::task::replace_own_icvs(None).unwrap_or_else(current);
    f(Arc::make_mut(&mut own));
    crate::task::replace_own_icvs(Some(own));
}

/// Set any ICV — `cancel-var`, `bind-var`, the place list, hot teams —
/// for the calling task until the returned guard drops (romp extension;
/// `omp_set_*` reach only some). The scope is `omp_set_*`'s. The guard
/// restores the task's previous ICVs; drop it in the same task.
pub fn set_local(f: impl FnOnce(&mut Icvs)) -> LocalIcvs {
    let prev = crate::task::with_own_icvs(|own| own.cloned());
    set(f);
    LocalIcvs(prev)
}

/// Scope of a [`set_local`]: restores the task's previous ICVs on drop.
#[must_use = "the ICVs revert when the guard drops"]
pub struct LocalIcvs(Option<Arc<Icvs>>);

impl Drop for LocalIcvs {
    fn drop(&mut self) {
        crate::task::replace_own_icvs(self.0.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_icvs_are_sane() {
        let icvs = Icvs::default();
        assert!(icvs.thread_limit >= hardware_threads());
        assert_eq!(icvs.max_active_levels, 1);
        assert!(!icvs.dynamic);
    }

    #[test]
    fn nthreads_for_level_uses_list_then_saturates() {
        let icvs = Icvs {
            nthreads: vec![4, 2],
            ..Icvs::default()
        };
        assert_eq!(icvs.nthreads_for_level(0), 4);
        assert_eq!(icvs.nthreads_for_level(1), 2);
        // Deeper levels reuse the last entry.
        assert_eq!(icvs.nthreads_for_level(5), 2);
    }

    #[test]
    fn nthreads_empty_list_means_hardware() {
        let icvs = Icvs::default();
        assert_eq!(icvs.nthreads_for_level(0), hardware_threads());
    }

    #[test]
    fn local_set_shadows_global() {
        std::thread::spawn(|| {
            set(|i| i.nthreads = vec![3]);
            assert_eq!(current().nthreads, vec![3]);
            let global = with_global(|g| g.nthreads.clone());
            assert_ne!(
                global,
                vec![3],
                "a task's set must not reach the global block"
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn cancellation_override_shadows_and_restores() {
        assert!(!Icvs::default().cancellation);
        let before = current();
        let arm = set_local(|i| i.cancellation = true);
        assert!(current().cancellation);
        drop(arm);
        assert!(
            Arc::ptr_eq(&current(), &before),
            "the guard restores the environment"
        );
    }

    #[test]
    fn proc_bind_for_level_uses_list_then_saturates() {
        let icvs = Icvs {
            proc_bind: vec![ProcBind::Spread, ProcBind::Close],
            ..Icvs::default()
        };
        assert_eq!(icvs.proc_bind_for_level(0), ProcBind::Spread);
        assert_eq!(icvs.proc_bind_for_level(1), ProcBind::Close);
        assert_eq!(icvs.proc_bind_for_level(7), ProcBind::Close);
        assert_eq!(Icvs::default().proc_bind_for_level(0), ProcBind::False);
    }

    #[test]
    fn proc_bind_and_places_overrides_shadow_and_restore() {
        let before = current();
        let places = Arc::new(vec![vec![0usize], vec![1]]);
        let scope = set_local(|i| {
            i.proc_bind = vec![ProcBind::Spread];
            i.places = Some(places.clone());
        });
        assert_eq!(current().proc_bind_for_level(0), ProcBind::Spread);
        assert!(Arc::ptr_eq(current().places.as_ref().unwrap(), &places));
        drop(scope);
        assert!(Arc::ptr_eq(&current(), &before));
    }

    #[test]
    fn global_change_reaches_a_task_that_set_nothing() {
        std::thread::spawn(|| {
            let seen = current();
            // A write that changes nothing: concurrent tests see the
            // same values, but the block is a new copy.
            with_global_mut(|_| ());
            let now = current();
            assert!(!Arc::ptr_eq(&seen, &now), "copy on write");
            assert_eq!(now.stacksize, seen.stacksize);
        })
        .join()
        .unwrap();
    }
}
