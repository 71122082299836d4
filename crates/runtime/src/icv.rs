//! Internal control variables (ICVs), OpenMP 5.2 §2.
//!
//! A single global ICV block is initialized once from the `OMP_*`
//! environment (see [`crate::env`]) and may be adjusted afterwards through
//! the `omp_set_*` API (which lands in a per-thread `TlsOverride`) or
//! through [`with_global_mut`]. Tests that must not perturb concurrently
//! running tests drive per-thread knobs via the TLS override instead of
//! mutating the global block.
//!
//! Simplification relative to the full spec: `nthreads-var` and friends
//! are process-global plus a per-OS-thread override, rather than being
//! carried per *data environment*. For the flat and one-level-nested
//! regions the paper exercises this is observationally equivalent; the
//! difference would only show up when a task changes an ICV and expects
//! siblings not to see it.

use crate::sched::Schedule;
use parking_lot::RwLock;
use std::cell::RefCell;
use std::sync::OnceLock;

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
    pub places: Option<std::sync::Arc<Vec<Vec<usize>>>>,
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
    /// use [`set_cancellation_override`].
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

fn global_cell() -> &'static RwLock<Icvs> {
    static GLOBAL: OnceLock<RwLock<Icvs>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(crate::env::icvs_from_env()))
}

/// The global `wait-policy-var` (no thread overrides it), without
/// copying the whole block as [`current`] does.
pub(crate) fn wait_policy() -> WaitPolicy {
    global_cell().read().wait_policy
}

/// Read a copy of the global ICVs (with any thread-local overrides from
/// `omp_set_*` applied on top).
pub fn current() -> Icvs {
    let mut base = global_cell().read().clone();
    TLS_OVERRIDE.with(|o| {
        if let Some(ovr) = o.borrow().as_ref() {
            if let Some(n) = ovr.num_threads {
                base.nthreads = vec![n];
            }
            if let Some(d) = ovr.dynamic {
                base.dynamic = d;
            }
            if let Some(m) = ovr.max_active_levels {
                base.max_active_levels = m;
            }
            if let Some(s) = ovr.run_sched {
                base.run_sched = s;
            }
            if let Some(h) = ovr.hot_teams {
                base.hot_teams = h;
            }
            if let Some(c) = ovr.cancellation {
                base.cancellation = c;
            }
            if let Some(pb) = ovr.proc_bind.as_ref() {
                base.proc_bind = pb.clone();
            }
            if let Some(pl) = ovr.places.as_ref() {
                base.places = Some(pl.clone());
            }
        }
    });
    base
}

/// Mutate the global block in place.
pub fn with_global_mut<R>(f: impl FnOnce(&mut Icvs) -> R) -> R {
    f(&mut global_cell().write())
}

/// Per-OS-thread ICV overrides set through the `omp_set_*` API.
#[derive(Debug, Default, Clone)]
pub(crate) struct TlsOverride {
    pub num_threads: Option<usize>,
    pub dynamic: Option<bool>,
    pub max_active_levels: Option<usize>,
    pub run_sched: Option<Schedule>,
    /// Per-thread hot-team opt-out. No `omp_set_*` sets this; it lets
    /// tests drive one-region leases hermetically without mutating the
    /// process-global block out from under concurrently-running tests.
    pub hot_teams: Option<bool>,
    /// Per-thread `cancel-var` override (see
    /// [`set_cancellation_override`]). OpenMP fixes `cancel-var` at
    /// startup; this romp extension lets early-exit kernels and tests
    /// arm/disarm cancellation for the forks of one thread without
    /// mutating the process-global block under concurrent tests.
    pub cancellation: Option<bool>,
    /// Per-thread `bind-var` override (see [`set_proc_bind_override`]):
    /// lets tests and benches request a binding policy for the forks of
    /// one thread without mutating the process-global block.
    pub proc_bind: Option<Vec<ProcBind>>,
    /// Per-thread place-list override (see [`set_places_override`]):
    /// lets tests drive partition logic with a synthetic `OMP_PLACES`
    /// list, hermetically.
    pub places: Option<std::sync::Arc<Vec<Vec<usize>>>>,
}

thread_local! {
    pub(crate) static TLS_OVERRIDE: RefCell<Option<TlsOverride>> = const { RefCell::new(None) };
}

pub(crate) fn tls_override_mut(f: impl FnOnce(&mut TlsOverride)) {
    TLS_OVERRIDE.with(|o| {
        let mut b = o.borrow_mut();
        f(b.get_or_insert_with(TlsOverride::default));
    });
}

/// This thread's explicit `omp_set_schedule` override, if any.
pub(crate) fn tls_run_sched_override() -> Option<Schedule> {
    TLS_OVERRIDE.with(|o| o.borrow().as_ref().and_then(|t| t.run_sched))
}

/// Discard this thread's `omp_set_*` overrides. Pool workers call this
/// before each region: an implicit task starts with a fresh data
/// environment inherited from the team, so overrides a worker set while
/// serving an earlier region must not leak into later teams.
pub(crate) fn tls_clear_overrides() {
    TLS_OVERRIDE.with(|o| *o.borrow_mut() = None);
}

/// Override `cancel-var` for forks from the calling thread (romp
/// extension; OpenMP fixes `cancel-var` at process startup, which would
/// make early-exit kernels depend on the site environment). `Some(v)`
/// shadows the global ICV, `None` restores it. Returns the previous
/// override so callers can scope the change.
pub fn set_cancellation_override(v: Option<bool>) -> Option<bool> {
    TLS_OVERRIDE.with(|o| {
        let mut b = o.borrow_mut();
        let slot = b.get_or_insert_with(TlsOverride::default);
        std::mem::replace(&mut slot.cancellation, v)
    })
}

/// Override the per-level `bind-var` list for forks from the calling
/// thread (romp extension). `Some(v)` shadows the global ICV, `None`
/// restores it. Returns the previous override so callers can scope the
/// change.
pub fn set_proc_bind_override(v: Option<Vec<ProcBind>>) -> Option<Vec<ProcBind>> {
    TLS_OVERRIDE.with(|o| {
        let mut b = o.borrow_mut();
        let slot = b.get_or_insert_with(TlsOverride::default);
        std::mem::replace(&mut slot.proc_bind, v)
    })
}

/// Override the place list for forks from the calling thread (romp
/// extension; tests use synthetic places so partition assertions don't
/// depend on the host's CPU count). `Some(v)` shadows the global ICV,
/// `None` restores it. Returns the previous override.
pub fn set_places_override(
    v: Option<std::sync::Arc<Vec<Vec<usize>>>>,
) -> Option<std::sync::Arc<Vec<Vec<usize>>>> {
    TLS_OVERRIDE.with(|o| {
        let mut b = o.borrow_mut();
        let slot = b.get_or_insert_with(TlsOverride::default);
        std::mem::replace(&mut slot.places, v)
    })
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
    fn tls_override_shadows_global() {
        tls_override_mut(|o| o.num_threads = Some(3));
        assert_eq!(current().nthreads, vec![3]);
        TLS_OVERRIDE.with(|o| *o.borrow_mut() = None);
    }

    #[test]
    fn cancellation_override_shadows_and_restores() {
        assert!(!Icvs::default().cancellation);
        let prev = set_cancellation_override(Some(true));
        assert!(current().cancellation);
        set_cancellation_override(prev);
        assert_eq!(current().cancellation, global_cell().read().cancellation);
        TLS_OVERRIDE.with(|o| *o.borrow_mut() = None);
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
        let prev = set_proc_bind_override(Some(vec![ProcBind::Spread]));
        assert_eq!(current().proc_bind_for_level(0), ProcBind::Spread);
        set_proc_bind_override(prev);
        let places = std::sync::Arc::new(vec![vec![0usize], vec![1]]);
        let prev = set_places_override(Some(places.clone()));
        assert!(std::sync::Arc::ptr_eq(
            current().places.as_ref().unwrap(),
            &places
        ));
        set_places_override(prev);
        TLS_OVERRIDE.with(|o| *o.borrow_mut() = None);
    }
}
