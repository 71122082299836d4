//! OpenMP-style locks: `omp_lock_t` and `omp_nest_lock_t` equivalents.
//!
//! These are *runtime objects*, not RAII guards: `set`/`unset` may happen
//! in different scopes, different functions, even different constructs —
//! exactly the (un-Rusty) API the OpenMP spec defines and the NPB codes
//! use. A scoped [`OmpLock::with`] helper is provided for idiomatic call
//! sites; `critical` sections build on it (see [`mod@crate::critical`]).
//!
//! The implementation is a test-and-test-and-set lock: a contended
//! `set` polls the lock word on the runtime's one wait ladder
//! ([`crate::wait`]), spaced by a doubling backoff, parking in the
//! lock's own sleeper set, and `unset` wakes one sleeper.

use crate::wait::{self, Ladder, Sleepers};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Process-unique id for the current OS thread (used for nest-lock
/// ownership; distinct from the OpenMP thread number, which is
/// team-relative).
pub(crate) fn os_thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ID: Cell<u64> = const { Cell::new(0) };
    }
    ID.with(|id| {
        let mut v = id.get();
        if v == 0 {
            v = NEXT.fetch_add(1, Ordering::Relaxed);
            id.set(v);
        }
        v
    })
}

const UNLOCKED: usize = 0;
const LOCKED: usize = 1;

/// A simple (non-nestable) OpenMP lock: `omp_init_lock` / `omp_set_lock` /
/// `omp_unset_lock` / `omp_test_lock`.
#[derive(Debug, Default)]
pub struct OmpLock {
    state: AtomicUsize,
    sleepers: Sleepers,
}

impl OmpLock {
    /// `omp_init_lock`.
    pub const fn new() -> Self {
        OmpLock {
            state: AtomicUsize::new(UNLOCKED),
            sleepers: Sleepers::new(),
        }
    }

    /// `omp_set_lock`: block until the lock is acquired.
    pub fn set(&self) {
        // Fast path.
        if self
            .state
            .compare_exchange(UNLOCKED, LOCKED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            return;
        }
        crate::stats::bump(|s| &s.contended_locks);
        // Test-and-test-and-set: poll with a plain load first so the
        // cache line stays shared while the lock is held, on a spaced
        // ladder so a holder re-taking the lock keeps it uncontended.
        wait::until(Ladder::current().spaced(), &self.sleepers, || {
            self.state.load(Ordering::Relaxed) == UNLOCKED
                && self
                    .state
                    .compare_exchange(UNLOCKED, LOCKED, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
        });
    }

    /// `omp_test_lock`: try to acquire without blocking.
    pub fn test(&self) -> bool {
        self.state
            .compare_exchange(UNLOCKED, LOCKED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// `omp_unset_lock`. Panics if the lock is not held (which the spec
    /// declares undefined behaviour; we choose to catch it).
    pub fn unset(&self) {
        let prev = self.state.swap(UNLOCKED, Ordering::SeqCst);
        assert_eq!(prev, LOCKED, "omp_unset_lock on an unlocked lock");
        self.sleepers.wake_one();
    }

    /// Scoped acquire: run `f` while holding the lock. Unlocks even if
    /// `f` panics.
    pub fn with<R>(&self, f: impl FnOnce() -> R) -> R {
        self.set();
        struct Unset<'a>(&'a OmpLock);
        impl Drop for Unset<'_> {
            fn drop(&mut self) {
                self.0.unset();
            }
        }
        let _guard = Unset(self);
        f()
    }
}

/// A nestable OpenMP lock (`omp_nest_lock_t`): the owning thread may
/// re-acquire; each `set` must be matched by an `unset`.
#[derive(Debug, Default)]
pub struct NestLock {
    inner: OmpLock,
    owner: AtomicU64,
    depth: AtomicUsize,
}

impl NestLock {
    /// `omp_init_nest_lock`.
    pub const fn new() -> Self {
        NestLock {
            inner: OmpLock::new(),
            owner: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
        }
    }

    /// `omp_set_nest_lock`. Returns the nesting depth after acquiring
    /// (1 = outermost), mirroring `omp_test_nest_lock`'s counting.
    pub fn set(&self) -> usize {
        let me = os_thread_id();
        if self.owner.load(Ordering::Relaxed) == me {
            let d = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
            return d;
        }
        self.inner.set();
        self.owner.store(me, Ordering::Relaxed);
        self.depth.store(1, Ordering::Relaxed);
        1
    }

    /// `omp_test_nest_lock`: non-blocking; returns the new depth, or 0 if
    /// the lock is held elsewhere.
    pub fn test(&self) -> usize {
        let me = os_thread_id();
        if self.owner.load(Ordering::Relaxed) == me {
            return self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        }
        if self.inner.test() {
            self.owner.store(me, Ordering::Relaxed);
            self.depth.store(1, Ordering::Relaxed);
            1
        } else {
            0
        }
    }

    /// `omp_unset_nest_lock`. Panics when called by a non-owner.
    pub fn unset(&self) {
        let me = os_thread_id();
        assert_eq!(
            self.owner.load(Ordering::Relaxed),
            me,
            "omp_unset_nest_lock by non-owning thread"
        );
        let d = self.depth.fetch_sub(1, Ordering::Relaxed);
        assert!(d >= 1, "omp_unset_nest_lock underflow");
        if d == 1 {
            self.owner.store(0, Ordering::Relaxed);
            self.inner.unset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_provides_mutual_exclusion() {
        let lock = Arc::new(OmpLock::new());
        // Cell is !Sync; smuggle its address through usize to create a
        // race that only the lock prevents. The cell outlives the threads
        // because we join them before reading.
        let shared = Box::new(Cell::new(0i64));
        let addr = shared.as_ref() as *const Cell<i64> as usize;
        let mut handles = vec![];
        for _ in 0..8 {
            let lock = lock.clone();
            handles.push(std::thread::spawn(move || {
                let cell = unsafe { &*(addr as *const Cell<i64>) };
                for _ in 0..10_000 {
                    lock.with(|| {
                        cell.set(cell.get() + 1);
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.get(), 80_000);
    }

    #[test]
    fn test_lock_reports_contention() {
        let lock = OmpLock::new();
        assert!(lock.test());
        assert!(!lock.test());
        lock.unset();
        assert!(lock.test());
        lock.unset();
    }

    #[test]
    #[should_panic(expected = "unlocked lock")]
    fn unset_of_unlocked_panics() {
        OmpLock::new().unset();
    }

    #[test]
    fn with_unlocks_on_panic() {
        let lock = OmpLock::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lock.with(|| panic!("boom"));
        }));
        assert!(r.is_err());
        assert!(lock.test(), "lock must be released after panic");
        lock.unset();
    }

    #[test]
    fn nest_lock_reentrant_on_same_thread() {
        let lock = NestLock::new();
        assert_eq!(lock.set(), 1);
        assert_eq!(lock.set(), 2);
        assert_eq!(lock.test(), 3);
        lock.unset();
        lock.unset();
        lock.unset();
        // Fully released: another "thread" (here: same, after release) can
        // take it again from scratch.
        assert_eq!(lock.set(), 1);
        lock.unset();
    }

    #[test]
    fn nest_lock_blocks_other_threads() {
        let lock = Arc::new(NestLock::new());
        lock.set();
        let l2 = lock.clone();
        let h = std::thread::spawn(move || l2.test());
        assert_eq!(h.join().unwrap(), 0, "other thread must not acquire");
        lock.unset();
        let l3 = lock.clone();
        let h = std::thread::spawn(move || {
            let d = l3.set();
            l3.unset();
            d
        });
        assert_eq!(h.join().unwrap(), 1);
    }

    #[test]
    fn os_thread_ids_are_unique() {
        let a = os_thread_id();
        let b = std::thread::spawn(os_thread_id).join().unwrap();
        assert_ne!(a, b);
        assert_eq!(a, os_thread_id(), "stable within a thread");
    }
}
