//! The `omp_*` user API.
//!
//! Free functions mirroring the OpenMP runtime-library routines (spec
//! §18) so ported codes read like their C/Fortran originals. They consult
//! the per-thread region stack and the current task's data environment,
//! so — unlike [`crate::ThreadCtx`] methods — they work from anywhere,
//! including inside tasks and library code that was not handed a
//! context. The `omp_set_*` routines change the calling task's ICVs
//! only (see [`crate::icv`]).

use crate::ctx::{with_current, with_place_partition};
use crate::icv;
use crate::sched::Schedule;

/// `omp_get_thread_num`: this thread's number in the innermost team
/// (0 outside any parallel region).
pub fn omp_get_thread_num() -> usize {
    with_current(|r| r.thread_num, || 0)
}

/// `omp_get_num_threads`: size of the innermost team (1 outside).
pub fn omp_get_num_threads() -> usize {
    with_current(|r| r.team.size(), || 1)
}

/// `omp_in_parallel`: inside an active (size > 1) parallel region?
pub fn omp_in_parallel() -> bool {
    with_current(|r| r.team.active_level > 0, || false)
}

/// `omp_get_level`: number of enclosing parallel regions (active or not).
pub fn omp_get_level() -> usize {
    with_current(|r| r.team.level, || 0)
}

/// `omp_get_active_level`: number of enclosing *active* regions.
pub fn omp_get_active_level() -> usize {
    with_current(|r| r.team.active_level, || 0)
}

/// `omp_get_ancestor_thread_num(level)`: thread number of this thread's
/// ancestor at `level` (0 = initial task). `None` for levels deeper than
/// the current nest (the C API returns -1).
pub fn omp_get_ancestor_thread_num(level: usize) -> Option<usize> {
    with_current(
        |r| {
            if level == r.team.level {
                Some(r.thread_num)
            } else {
                r.team.ancestors.get(level).map(|&(tn, _)| tn)
            }
        },
        || (level == 0).then_some(0),
    )
}

/// `omp_get_team_size(level)`: team size at `level` of the nest.
pub fn omp_get_team_size(level: usize) -> Option<usize> {
    with_current(
        |r| {
            if level == r.team.level {
                Some(r.team.size())
            } else {
                r.team.ancestors.get(level).map(|&(_, sz)| sz)
            }
        },
        || (level == 0).then_some(1),
    )
}

/// `omp_get_max_threads`: team size a `parallel` construct encountered
/// here would request.
pub fn omp_get_max_threads() -> usize {
    let level = omp_get_level();
    icv::with_current(|i| i.nthreads_for_level(level))
}

/// `omp_get_num_procs`: hardware concurrency.
pub fn omp_get_num_procs() -> usize {
    icv::hardware_threads()
}

/// `omp_get_thread_limit`.
pub fn omp_get_thread_limit() -> usize {
    icv::with_current(|i| i.thread_limit)
}

/// `omp_set_num_threads`: set the calling task's `nthreads-var`.
pub fn omp_set_num_threads(n: usize) {
    icv::set(|i| i.nthreads = vec![n.max(1)]);
}

/// `omp_set_dynamic`.
pub fn omp_set_dynamic(dynamic: bool) {
    icv::set(|i| i.dynamic = dynamic);
}

/// `omp_get_dynamic`.
pub fn omp_get_dynamic() -> bool {
    icv::with_current(|i| i.dynamic)
}

/// `omp_set_max_active_levels`.
pub fn omp_set_max_active_levels(levels: usize) {
    icv::set(|i| i.max_active_levels = levels);
}

/// `omp_get_max_active_levels`.
pub fn omp_get_max_active_levels() -> usize {
    icv::with_current(|i| i.max_active_levels)
}

/// `omp_set_schedule`: set the calling task's `run-sched-var`, which
/// `schedule(runtime)` loops in the regions it forks from now on use.
pub fn omp_set_schedule(sched: Schedule) {
    icv::set(|i| i.run_sched = sched);
}

/// `omp_get_schedule`: the calling task's `run-sched-var` — its own
/// `omp_set_schedule` if it made one, else the one it inherited from
/// its team (what a `schedule(runtime)` loop here uses) or, outside any
/// region, the global one.
pub fn omp_get_schedule() -> Schedule {
    icv::with_current(|i| i.run_sched)
}

/// `omp_get_proc_bind`: the thread-affinity policy of the current
/// region — the fork's `proc_bind` clause if one was given, else the
/// entry of the `bind-var` ICV list (`OMP_PROC_BIND`) for the next
/// nesting level. Where the OS allows, the policy is enforced by
/// place-partitioning the team at fork (see [`crate::affinity`]).
pub fn omp_get_proc_bind() -> crate::icv::ProcBind {
    with_current(
        |r| r.team.snap().proc_bind,
        || icv::with_current(|i| i.proc_bind_for_level(0)),
    )
}

/// `omp_get_num_places`: number of places in the place list
/// (`OMP_PLACES`, or one place per hardware thread when unset).
pub fn omp_get_num_places() -> usize {
    crate::affinity::place_list_len()
}

/// `omp_get_place_num`: the place this thread executes in, or `None`
/// when it is unbound (the C API returns -1).
pub fn omp_get_place_num() -> Option<usize> {
    with_place_partition(|p| p.map(|(_, _, _, place)| place))
}

/// `omp_get_partition_num_places`: size of the place partition of the
/// innermost implicit task (0 when unbound).
pub fn omp_get_partition_num_places() -> usize {
    with_place_partition(|p| p.map_or(0, |(_, _, count, _)| count))
}

/// `omp_get_partition_place_nums`: the place numbers of the innermost
/// implicit task's partition (empty when unbound).
pub fn omp_get_partition_place_nums() -> Vec<usize> {
    with_place_partition(|p| {
        p.map_or_else(Vec::new, |(_, first, count, _)| {
            (first..first + count).collect()
        })
    })
}

/// `omp_get_num_teams`: size of the innermost league (1 outside any
/// `teams` construct).
pub fn omp_get_num_teams() -> usize {
    crate::ctx::innermost_league().map_or(1, |(size, _)| size)
}

/// `omp_get_team_num`: this thread's team number in the innermost
/// league (0 outside any `teams` construct).
pub fn omp_get_team_num() -> usize {
    crate::ctx::innermost_league().map_or(0, |(_, num)| num)
}

/// `omp_get_cancellation`: is the cancellation machinery armed
/// (`cancel-var`, from `OMP_CANCELLATION` or [`icv::set_local`])?
/// Reports the calling task's value; inside a region that is the one
/// its team inherited, which `cancel` in that region consults.
pub fn omp_get_cancellation() -> bool {
    crate::ctx::current_cancellable()
}

/// `omp_get_wtime` (re-exported from [`crate::wtime`]).
pub fn omp_get_wtime() -> f64 {
    crate::wtime::get_wtime()
}

/// `omp_get_wtick`.
pub fn omp_get_wtick() -> f64 {
    crate::wtime::get_wtick()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{fork, ForkSpec};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn sequential_defaults() {
        // These run on the test thread outside any region.
        assert_eq!(omp_get_thread_num(), 0);
        assert_eq!(omp_get_num_threads(), 1);
        assert!(!omp_in_parallel());
        assert_eq!(omp_get_level(), 0);
        assert_eq!(omp_get_ancestor_thread_num(0), Some(0));
        assert_eq!(omp_get_ancestor_thread_num(3), None);
        assert_eq!(omp_get_team_size(0), Some(1));
        assert!(omp_get_num_procs() >= 1);
    }

    #[test]
    fn api_inside_region_matches_ctx() {
        let checked = AtomicUsize::new(0);
        fork(ForkSpec::with_num_threads(3), |ctx| {
            assert_eq!(omp_get_thread_num(), ctx.thread_num());
            assert_eq!(omp_get_num_threads(), 3);
            assert!(omp_in_parallel());
            assert_eq!(omp_get_level(), 1);
            assert_eq!(omp_get_active_level(), 1);
            assert_eq!(omp_get_ancestor_thread_num(0), Some(0));
            assert_eq!(
                omp_get_ancestor_thread_num(1),
                Some(ctx.thread_num()),
                "ancestor at own level is self"
            );
            assert_eq!(omp_get_team_size(1), Some(3));
            checked.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(checked.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn nested_levels_reported() {
        let _nested = crate::icv::set_local(|icvs| icvs.max_active_levels = 2);
        fork(ForkSpec::with_num_threads(2), |outer| {
            let outer_tn = outer.thread_num();
            fork(ForkSpec::with_num_threads(2), move |_inner| {
                assert_eq!(omp_get_level(), 2);
                assert_eq!(
                    omp_get_ancestor_thread_num(1),
                    Some(outer_tn),
                    "level-1 ancestor is the outer thread"
                );
                assert_eq!(omp_get_team_size(1), Some(2));
            });
        });
    }

    #[test]
    fn set_num_threads_is_thread_local() {
        // Another thread's initial task does not see this one's set.
        let other = std::thread::spawn(omp_get_max_threads).join().unwrap();
        omp_set_num_threads(other + 1);
        assert_eq!(omp_get_max_threads(), other + 1);
        assert_eq!(
            std::thread::spawn(omp_get_max_threads).join().unwrap(),
            other
        );
    }

    #[test]
    fn set_schedule_round_trips() {
        omp_set_schedule(Schedule::guided_chunk(3));
        assert_eq!(omp_get_schedule(), Schedule::Guided { chunk: 3 });
    }
}
