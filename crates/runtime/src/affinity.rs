//! Thread→CPU binding: the enforcement half of `OMP_PLACES` /
//! `OMP_PROC_BIND`.
//!
//! [`crate::env`] parses `OMP_PLACES` into a **place list** (each place
//! is a set of CPU ids); this module turns a place list plus a
//! `proc_bind` policy into a per-team `TeamPlaces` partition at fork
//! time, and applies it with `sched_setaffinity` when a team thread
//! starts a region.
//!
//! ## The partition model (OpenMP `place-partition-var`)
//!
//! Every thread owns a contiguous *sub-partition* `(first, count)` of
//! the place list, inherited from its team:
//!
//! * the initial thread owns the whole list;
//! * `spread` splits the master's partition into `size` disjoint
//!   contiguous chunks — thread `i` owns chunk `i` and binds to its
//!   first place (so a nested `close` team inherits a socket-local
//!   slice, the GHOST/CARP zone-per-socket pattern);
//! * `close` keeps the master's partition for every thread and binds
//!   thread `i` to the `i`-th place after the master's, cyclically;
//! * `master`/`primary` binds every thread to the master's own place;
//! * `true` behaves like `close`; `false` disables binding (no
//!   `TeamPlaces` is built and the fork pays nothing).
//!
//! ## Graceful degradation
//!
//! The actual syscall is a raw `sched_setaffinity` behind a
//! target-gated shim — no libc dependency. Where the syscall is
//! unavailable (non-Linux) or fails (mask names CPUs the machine does
//! not have, cpuset restrictions), the failure is **counted**
//! ([`crate::stats`] `affinity_bind_failures`) and warned **once** per
//! process; the runtime carries on unbound. Placement never affects
//! correctness, only locality.

use crate::icv::{Icvs, ProcBind};
use std::cell::Cell;
use std::sync::{Arc, OnceLock};

/// A parsed `OMP_PLACES` list: each place is a non-empty set of CPU ids.
pub type PlaceList = Vec<Vec<usize>>;

/// A team's place partition, computed by [`update_team_places`] when a
/// team is built and again when a hot team's fork changes one of its
/// inputs. Indexed by `thread_num`.
#[derive(Debug)]
pub(crate) struct TeamPlaces {
    /// The policy and the master's `(first, count, current place)` it
    /// was computed from.
    bind: ProcBind,
    master: (usize, usize, usize),
    /// The full place list this partition indexes into.
    pub list: Arc<PlaceList>,
    /// Per-thread inherited sub-partition `(first_place, place_count)`;
    /// the thread's own nested forks partition *this* range.
    pub parts: Vec<(usize, usize)>,
    /// Per-thread place index the thread binds to while running the
    /// region.
    pub place_of: Vec<usize>,
}

/// Default place list when binding is requested (`proc_bind` ≠ false)
/// but `OMP_PLACES` is unset: one place per hardware thread, the
/// moral equivalent of `OMP_PLACES=cores`.
fn default_places() -> &'static Arc<PlaceList> {
    static DEFAULT: OnceLock<Arc<PlaceList>> = OnceLock::new();
    DEFAULT.get_or_init(|| {
        Arc::new(
            (0..crate::icv::hardware_threads())
                .map(|c| vec![c])
                .collect(),
        )
    })
}

/// Bring `slot` up to date with the place partition for a team of
/// `size` threads forked under `bind`: `None` when binding is off
/// (`proc_bind=false`), the team is a serialized team of one (it keeps
/// the enclosing partition) or no usable place list exists — the region
/// then runs unbound and pays no affinity cost at all. A partition
/// already in `slot` is kept when the policy, size, place list and the
/// master's own partition all match, so a hot team's repeat fork
/// computes and allocates nothing.
///
/// The master's own sub-partition (and current place) come from the
/// innermost enclosing region that carries places, so nested teams
/// partition their parent's slice, not the whole machine; the initial
/// thread partitions the full `OMP_PLACES` list (or the one-place-per-
/// CPU default when binding is requested without places).
pub(crate) fn update_team_places(
    slot: &mut Option<Arc<TeamPlaces>>,
    bind: ProcBind,
    size: usize,
    icvs: &Icvs,
) {
    if bind == ProcBind::False || size <= 1 {
        *slot = None;
        return;
    }
    crate::ctx::with_place_partition(|inherited| {
        let (list, first, count, cur) = inherited.unwrap_or_else(|| {
            let list = icvs.places.as_ref().unwrap_or_else(|| default_places());
            (list, 0, list.len(), 0)
        });
        if count == 0 {
            *slot = None;
            return;
        }
        let unchanged = slot.as_ref().is_some_and(|p| {
            p.bind == bind
                && p.place_of.len() == size
                && Arc::ptr_eq(&p.list, list)
                && p.master == (first, count, cur)
        });
        if !unchanged {
            *slot = Some(Arc::new(partition(bind, size, list, (first, count, cur))));
        }
    })
}

/// Split the master's partition `(first, count, cur)` of `list` over a
/// team of `size` per `bind` (the module docs give the rules).
fn partition(
    bind: ProcBind,
    size: usize,
    list: &Arc<PlaceList>,
    (first, count, cur): (usize, usize, usize),
) -> TeamPlaces {
    debug_assert!(count >= 1 && first + count <= list.len());
    let (parts, place_of) = (0..size)
        .map(|i| match bind {
            // Split the master's partition into `size` disjoint
            // contiguous chunks (balanced to within one place).
            ProcBind::Spread if count >= size => {
                let lo = first + i * count / size;
                ((lo, first + (i + 1) * count / size - lo), lo)
            }
            // More threads than places: wrap, one place each.
            ProcBind::Spread => {
                let p = first + i % count;
                ((p, 1), p)
            }
            // Everybody keeps the master's partition; threads occupy
            // consecutive places starting from the master's.
            ProcBind::Close | ProcBind::True => (
                (first, count),
                first + (cur.saturating_sub(first) + i) % count,
            ),
            ProcBind::Master => ((first, count), cur),
            ProcBind::False => unreachable!("filtered by the caller"),
        })
        .unzip();
    TeamPlaces {
        bind,
        master: (first, count, cur),
        list: list.clone(),
        parts,
        place_of,
    }
}

/// Number of places in the effective place list (`OMP_PLACES`, or the
/// one-place-per-hardware-thread default). Backs `omp_get_num_places`.
pub fn place_list_len() -> usize {
    crate::icv::with_current(|i| i.places.as_ref().unwrap_or_else(|| default_places()).len())
}

thread_local! {
    /// Last (place-list identity, place index) this OS thread bound to;
    /// skips the syscall when a recycled hot team re-binds identically.
    /// Recorded even on failure so an impossible mask (CPUs the machine
    /// lacks) is attempted — and counted — once per target, not per fork.
    static LAST_BIND: Cell<(usize, usize)> = const { Cell::new((0, usize::MAX)) };
}

/// Bind the calling thread to its place for `thread_num` in `p`.
/// Idempotent per thread via [`LAST_BIND`]; failures degrade gracefully.
pub(crate) fn apply(p: &TeamPlaces, thread_num: usize) {
    let place = p.place_of[thread_num];
    let key = (Arc::as_ptr(&p.list) as *const () as usize, place);
    if LAST_BIND.with(|c| c.replace(key)) != key {
        bind_to_cpus(&p.list[place]);
    }
}

/// Forget this thread's bind memo (test hook: forces the next
/// [`apply`] to issue the syscall again).
#[cfg(test)]
pub(crate) fn forget_last_bind() {
    LAST_BIND.with(|c| c.set((0, usize::MAX)));
}

/// Bind the calling thread to the given CPU set. Returns whether the
/// kernel accepted the mask; the outcome is counted either way and the
/// first failure warns once per process.
pub(crate) fn bind_to_cpus(cpus: &[usize]) -> bool {
    if cpus.is_empty() {
        return false;
    }
    let words = cpus.iter().max().map(|&m| m / 64 + 1).unwrap_or(1);
    let mut mask = vec![0u64; words];
    for &c in cpus {
        mask[c / 64] |= 1u64 << (c % 64);
    }
    match sys_sched_setaffinity(&mask) {
        Ok(()) => {
            crate::stats::bump(|s| &s.affinity_binds);
            true
        }
        Err(err) => {
            crate::stats::bump(|s| &s.affinity_bind_failures);
            warn_once(err);
            false
        }
    }
}

/// Emit the one-per-process "affinity unavailable" warning.
fn warn_once(err: i32) {
    static WARNED: OnceLock<()> = OnceLock::new();
    WARNED.get_or_init(|| {
        eprintln!(
            "ROMP WARNING: thread affinity unavailable on this system \
             (sched_setaffinity failed, errno {err}); OMP_PLACES/OMP_PROC_BIND \
             placement is advisory from here on"
        );
    });
}

/// `sched_setaffinity(0, len, mask)` as a raw syscall — x86_64 Linux.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn sys_sched_setaffinity(mask: &[u64]) -> Result<(), i32> {
    let ret: isize;
    // SAFETY: sched_setaffinity reads `size` bytes from a live buffer;
    // pid 0 means the calling thread; no memory is written.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret, // __NR_sched_setaffinity
            in("rdi") 0usize,                 // pid 0 = current thread
            in("rsi") std::mem::size_of_val(mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly)
        );
    }
    if ret < 0 {
        Err(-(ret as i32))
    } else {
        Ok(())
    }
}

/// `sched_setaffinity(0, len, mask)` as a raw syscall — aarch64 Linux.
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
fn sys_sched_setaffinity(mask: &[u64]) -> Result<(), i32> {
    let ret: isize;
    // SAFETY: as above; aarch64 passes the number in x8, args in x0-x2.
    unsafe {
        core::arch::asm!(
            "svc 0",
            in("x8") 122usize, // __NR_sched_setaffinity
            inlateout("x0") 0usize => ret,
            in("x1") std::mem::size_of_val(mask),
            in("x2") mask.as_ptr(),
            options(nostack, readonly)
        );
    }
    if ret < 0 {
        Err(-(ret as i32))
    } else {
        Ok(())
    }
}

/// Stub for targets without a supported `sched_setaffinity` path: every
/// bind "fails" (counted, warned once), the runtime stays unbound.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn sys_sched_setaffinity(_mask: &[u64]) -> Result<(), i32> {
    Err(38) // ENOSYS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icv::Icvs;

    fn places(n: usize) -> Arc<PlaceList> {
        Arc::new((0..n).map(|c| vec![c]).collect())
    }

    fn icvs_with_places(n: usize) -> Icvs {
        Icvs {
            places: Some(places(n)),
            ..Icvs::default()
        }
    }

    /// A fresh partition, as a new team computes it.
    fn team_places(bind: ProcBind, size: usize, icvs: &Icvs) -> Option<Arc<TeamPlaces>> {
        let mut slot = None;
        update_team_places(&mut slot, bind, size, icvs);
        slot
    }

    #[test]
    fn an_unchanged_fork_keeps_its_partition() {
        let icvs = icvs_with_places(4);
        let mut slot = team_places(ProcBind::Spread, 2, &icvs);
        let first = slot.clone().unwrap();
        update_team_places(&mut slot, ProcBind::Spread, 2, &icvs);
        assert!(Arc::ptr_eq(slot.as_ref().unwrap(), &first), "recomputed");
        update_team_places(&mut slot, ProcBind::Close, 2, &icvs);
        assert_eq!(slot.as_ref().unwrap().parts, vec![(0, 4), (0, 4)]);
        update_team_places(&mut slot, ProcBind::Close, 2, &icvs_with_places(2));
        assert_eq!(slot.as_ref().unwrap().parts, vec![(0, 2), (0, 2)]);
        update_team_places(&mut slot, ProcBind::Close, 1, &icvs);
        assert!(
            slot.is_none(),
            "a team of one keeps the enclosing partition"
        );
    }

    #[test]
    fn spread_partitions_are_disjoint_and_cover() {
        // 4 places, 2 threads: each gets a disjoint contiguous half.
        let p = team_places(ProcBind::Spread, 2, &icvs_with_places(4)).unwrap();
        assert_eq!(p.parts, vec![(0, 2), (2, 2)]);
        assert_eq!(p.place_of, vec![0, 2]);
        // 4 places, 3 threads: balanced to within one place, still disjoint.
        let p = team_places(ProcBind::Spread, 3, &icvs_with_places(4)).unwrap();
        let total: usize = p.parts.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 4);
        for w in p.parts.windows(2) {
            assert_eq!(
                w[0].0 + w[0].1,
                w[1].0,
                "contiguous + disjoint: {:?}",
                p.parts
            );
        }
    }

    #[test]
    fn spread_wraps_when_threads_exceed_places() {
        let p = team_places(ProcBind::Spread, 4, &icvs_with_places(2)).unwrap();
        assert_eq!(p.place_of, vec![0, 1, 0, 1]);
        assert!(p.parts.iter().all(|&(_, c)| c == 1));
    }

    #[test]
    fn close_keeps_partition_and_packs_places() {
        let p = team_places(ProcBind::Close, 3, &icvs_with_places(4)).unwrap();
        assert!(p.parts.iter().all(|&part| part == (0, 4)));
        assert_eq!(p.place_of, vec![0, 1, 2]);
    }

    #[test]
    fn master_pins_everyone_to_the_masters_place() {
        let p = team_places(ProcBind::Master, 3, &icvs_with_places(4)).unwrap();
        assert_eq!(p.place_of, vec![0, 0, 0]);
    }

    #[test]
    fn bind_false_builds_nothing() {
        assert!(team_places(ProcBind::False, 4, &icvs_with_places(4)).is_none());
    }

    #[test]
    fn bind_without_places_defaults_to_one_place_per_cpu() {
        let p = team_places(ProcBind::Spread, 2, &Icvs::default()).unwrap();
        assert_eq!(p.list.len(), crate::icv::hardware_threads());
    }

    #[test]
    fn impossible_mask_fails_gracefully_and_is_counted() {
        let before = crate::stats::stats().snapshot();
        // CPU 4095 does not exist in any CI container; the syscall must
        // fail without panicking and the outcome must be counted.
        let ok = bind_to_cpus(&[4095]);
        let d = before.delta(&crate::stats::stats().snapshot());
        if ok {
            assert!(d.affinity_binds >= 1);
        } else {
            assert!(d.affinity_bind_failures >= 1);
        }
    }

    #[test]
    fn apply_memoizes_the_bound_target() {
        // Dedicated thread: LAST_BIND is per OS thread.
        std::thread::spawn(|| {
            let p = team_places(ProcBind::Close, 2, &icvs_with_places(2)).unwrap();
            forget_last_bind();
            apply(&p, 0);
            let key = (Arc::as_ptr(&p.list) as *const () as usize, p.place_of[0]);
            assert_eq!(
                LAST_BIND.with(|c| c.get()),
                key,
                "apply must record the target it bound (or tried to)"
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn binding_to_cpu0_succeeds_on_linux() {
        #[cfg(target_os = "linux")]
        {
            let before = crate::stats::stats().snapshot();
            assert!(bind_to_cpus(&[0]), "cpu 0 always exists");
            let d = before.delta(&crate::stats::stats().snapshot());
            assert!(d.affinity_binds >= 1);
        }
    }
}
