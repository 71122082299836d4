//! ICV scope conformance: internal control variables belong to a data
//! environment (OpenMP 5.2 §2), so an `omp_set_*` call changes the
//! calling task's ICVs only.
//!
//! * A set made inside a region by thread 0's implicit task ends with
//!   that task: the encountering task reads its own value after the
//!   join.
//! * Every implicit task of a team inherits the encountering task's
//!   ICVs, on workers as on the master.
//! * An explicit task inherits its generating task's ICVs, and a set it
//!   makes is seen neither by its siblings nor by its generating task.
//! * A nested region inherits its parent team's `run-sched-var`.
//! * [`icv::with_global_mut`] between regions reaches the next
//!   top-level fork of a task that set nothing of its own.
//!
//! Each test's initial task sets what it reads, so the tests pass under
//! any `OMP_*` environment and do not disturb each other.

use romp::runtime::{
    fork, icv, omp_get_max_threads, omp_get_schedule, omp_set_max_active_levels,
    omp_set_num_threads, omp_set_schedule, ForkSpec, Schedule,
};
use std::sync::Mutex;

/// What every member of a `threads`-thread region reads, by thread
/// number.
fn per_thread<T: Send>(threads: usize, read: impl Fn() -> T + Sync) -> Vec<T> {
    let seen = Mutex::new(Vec::new());
    fork(ForkSpec::with_num_threads(threads), |ctx| {
        seen.lock().unwrap().push((ctx.thread_num(), read()));
    });
    let mut seen = seen.into_inner().unwrap();
    seen.sort_by_key(|&(t, _)| t);
    seen.into_iter().map(|(_, v)| v).collect()
}

#[test]
fn a_set_inside_a_region_ends_with_its_implicit_task() {
    omp_set_num_threads(5);
    fork(ForkSpec::with_num_threads(2), |ctx| {
        if ctx.is_master() {
            omp_set_num_threads(3);
            assert_eq!(omp_get_max_threads(), 3);
        }
    });
    assert_eq!(
        omp_get_max_threads(),
        5,
        "thread 0's set inside the region reached the encountering task"
    );
    // The next region's implicit tasks start from the encountering
    // task's value again, on every thread.
    assert_eq!(per_thread(2, omp_get_max_threads), vec![5, 5]);
}

#[test]
fn workers_inherit_the_encountering_tasks_icvs() {
    omp_set_num_threads(7);
    omp_set_schedule(Schedule::dynamic_chunk(4));
    let seen = per_thread(2, || (omp_get_max_threads(), omp_get_schedule()));
    let want = (7, Schedule::Dynamic { chunk: 4 });
    assert_eq!(
        seen,
        vec![want, want],
        "a worker did not inherit the master's set"
    );
}

#[test]
fn a_worker_set_does_not_outlive_its_region() {
    omp_set_num_threads(6);
    for _ in 0..3 {
        let seen = per_thread(2, || {
            let before = omp_get_max_threads();
            omp_set_num_threads(9);
            before
        });
        assert_eq!(seen, vec![6, 6], "a set from an earlier region leaked");
    }
}

#[test]
fn a_tasks_set_is_its_own() {
    for threads in [1, 2] {
        omp_set_num_threads(5);
        let seen = Mutex::new(Vec::new());
        fork(ForkSpec::with_num_threads(threads), |ctx| {
            if !ctx.is_master() {
                return;
            }
            let seen = &seen;
            ctx.task(move || {
                seen.lock()
                    .unwrap()
                    .push(("inherited", omp_get_max_threads()));
                omp_set_num_threads(3);
                seen.lock().unwrap().push(("own", omp_get_max_threads()));
            });
            ctx.taskwait();
            ctx.task(move || {
                seen.lock()
                    .unwrap()
                    .push(("sibling", omp_get_max_threads()));
            });
            ctx.taskwait();
            seen.lock().unwrap().push(("parent", omp_get_max_threads()));
        });
        assert_eq!(
            seen.into_inner().unwrap(),
            vec![("inherited", 5), ("own", 3), ("sibling", 5), ("parent", 5)],
            "team of {threads}"
        );
        assert_eq!(omp_get_max_threads(), 5);
    }
}

#[test]
fn a_taskgroup_is_not_a_task() {
    omp_set_num_threads(4);
    fork(ForkSpec::with_num_threads(1), |ctx| {
        ctx.taskgroup(|| omp_set_num_threads(2));
        assert_eq!(omp_get_max_threads(), 2, "a set inside a taskgroup stays");
    });
    assert_eq!(omp_get_max_threads(), 4);
}

#[test]
fn a_nested_region_inherits_its_parent_teams_run_sched() {
    omp_set_max_active_levels(2);
    omp_set_schedule(Schedule::guided_chunk(6));
    let seen = Mutex::new(Vec::new());
    fork(ForkSpec::with_num_threads(2), |outer| {
        let outer_tn = outer.thread_num();
        let seen = &seen;
        fork(ForkSpec::with_num_threads(2), move |inner| {
            assert_eq!(inner.level(), 2);
            seen.lock().unwrap().push((outer_tn, omp_get_schedule()));
        });
    });
    let seen = seen.into_inner().unwrap();
    assert_eq!(seen.len(), 4);
    for (outer_tn, sched) in seen {
        assert_eq!(
            sched,
            Schedule::Guided { chunk: 6 },
            "inner team under outer thread {outer_tn}"
        );
    }
}

#[test]
fn a_global_change_reaches_the_next_top_level_fork() {
    // A task that set nothing reads the global block, so a change made
    // between regions is what the next region's implicit tasks see.
    // `run-sched-var` is the ICV the other tests here set locally.
    // A fresh thread, so no set of another test's initial task shadows
    // the global block.
    std::thread::spawn(|| {
        let want = Schedule::dynamic_chunk(11);
        let was = icv::with_global_mut(|i| std::mem::replace(&mut i.run_sched, want));
        let seen = per_thread(2, omp_get_schedule);
        icv::with_global_mut(|i| i.run_sched = was);
        assert_eq!(seen, vec![want, want]);
        assert_eq!(omp_get_schedule(), was);
    })
    .join()
    .unwrap();
}
