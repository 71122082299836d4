//! Under `OMP_WAIT_POLICY=passive` a waiting thread sleeps: held ~300 ms
//! at each kind of runtime wait, it uses at most 5 % of that in CPU
//! time. Runs in its own process because it sets the process-global
//! wait policy; the teams are one thread larger than the host's core
//! count, never more.
//!
//! CPU time is the first field of `/proc/thread-self/schedstat`, read on
//! the waiting thread; where the file is missing the CPU check is
//! skipped and only the waits' outcomes are checked.

use romp::prelude::*;
use romp::runtime::{icv, WaitPolicy};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

const HOLD: Duration = Duration::from_millis(300);

/// Passive waits and kept leases for this whole process.
fn passive() {
    icv::with_global_mut(|i| {
        i.wait_policy = WaitPolicy::Passive;
        i.hot_teams = true;
    });
}

fn team_size() -> usize {
    icv::hardware_threads() + 1
}

/// CPU time the calling thread has used, in ns.
fn thread_cpu_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// A wait's CPU and wall time, measured on the waiting thread.
struct Probe {
    cpu: Option<u64>,
    wall: Instant,
}

impl Probe {
    fn start() -> Probe {
        Probe {
            cpu: thread_cpu_ns(),
            wall: Instant::now(),
        }
    }

    /// `(cpu ns, wall)` since `start`, on the same thread.
    fn stop(&self) -> (Option<u64>, Duration) {
        let cpu = self.cpu.zip(thread_cpu_ns()).map(|(a, b)| b - a);
        (cpu, self.wall.elapsed())
    }
}

/// The wait really lasted about the hold, and cost at most 5 % of it in
/// CPU time.
fn assert_slept(site: &str, (cpu, wall): (Option<u64>, Duration)) {
    assert!(
        wall >= HOLD * 2 / 3,
        "{site}: the wait lasted only {wall:?}, so nothing was measured"
    );
    if let Some(cpu) = cpu {
        let budget = HOLD.as_nanos() as u64 / 20;
        assert!(
            cpu <= budget,
            "{site}: the waiting thread used {:.1} ms of CPU in a {wall:?} wait \
             (budget {:.1} ms)",
            cpu as f64 / 1e6,
            budget as f64 / 1e6
        );
    }
}

#[test]
fn ordered_turn_waiter_sleeps() {
    passive();
    let n = team_size();
    let seen = Mutex::new(None);
    fork(ForkSpec::with_num_threads(n), |ctx| {
        ctx.ws_for_ordered(0..n, Schedule::static_chunk(1), false, |i, ord| {
            if i == 1 {
                let probe = Probe::start();
                ord.section(|| *seen.lock().unwrap() = Some(probe.stop()));
            } else {
                ord.section(|| {
                    if i == 0 {
                        std::thread::sleep(HOLD);
                    }
                });
            }
        });
    });
    let m = seen.into_inner().unwrap().expect("iteration 1 ran");
    assert_slept("ordered turn", m);
}

#[test]
fn lock_waiter_sleeps() {
    passive();
    let lock = OmpLock::new();
    let seen = Mutex::new(None);
    fork(ForkSpec::with_num_threads(team_size()), |ctx| {
        if ctx.thread_num() == 0 {
            lock.set();
        }
        ctx.barrier();
        match ctx.thread_num() {
            0 => {
                std::thread::sleep(HOLD);
                lock.unset();
            }
            1 => {
                let probe = Probe::start();
                lock.set();
                *seen.lock().unwrap() = Some(probe.stop());
                lock.unset();
            }
            _ => {}
        }
    });
    assert_slept("omp_set_lock", seen.into_inner().unwrap().unwrap());
}

#[test]
fn taskwait_on_a_sleeping_task_sleeps() {
    passive();
    let started = AtomicBool::new(false);
    let seen = Mutex::new(None);
    fork(ForkSpec::with_num_threads(team_size()), |ctx| {
        if ctx.is_master() {
            ctx.task(|| {
                started.store(true, Ordering::SeqCst);
                std::thread::sleep(HOLD);
            });
            // A sibling at the region end takes the task; wait until it
            // runs elsewhere, so the taskwait below has nothing to run.
            while !started.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let probe = Probe::start();
            ctx.taskwait();
            *seen.lock().unwrap() = Some(probe.stop());
        }
    });
    assert_slept("taskwait", seen.into_inner().unwrap().unwrap());
}

#[test]
fn barrier_waiter_sleeps() {
    passive();
    let seen = Mutex::new(None);
    fork(ForkSpec::with_num_threads(team_size()), |ctx| {
        if ctx.thread_num() == 1 {
            std::thread::sleep(HOLD);
        }
        let probe = Probe::start();
        ctx.barrier();
        if ctx.is_master() {
            *seen.lock().unwrap() = Some(probe.stop());
        }
    });
    assert_slept("barrier", seen.into_inner().unwrap().unwrap());
}

#[test]
fn doorbell_waiter_sleeps_between_regions() {
    passive();
    let n = team_size();
    // Per thread number: the OS thread that ran it in the first region,
    // probed at the end of its body.
    let ends: Vec<Mutex<Option<(ThreadId, Probe)>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let checked = AtomicU64::new(0);
    fork(ForkSpec::with_num_threads(n), |ctx| {
        *ends[ctx.thread_num()].lock().unwrap() =
            Some((std::thread::current().id(), Probe::start()));
    });
    std::thread::sleep(HOLD);
    fork(ForkSpec::with_num_threads(n), |ctx| {
        let end = ends[ctx.thread_num()].lock().unwrap().take();
        let (id, probe) = end.expect("every thread ran the first region");
        // A kept lease binds each thread number to the same worker.
        if ctx.is_master() || id != std::thread::current().id() {
            return;
        }
        assert_slept("doorbell", probe.stop());
        checked.fetch_add(1, Ordering::SeqCst);
    });
    assert!(
        checked.load(Ordering::SeqCst) >= 1,
        "no worker served both regions"
    );
}

#[test]
fn joining_master_sleeps() {
    passive();
    let probe = Mutex::new(None);
    fork(ForkSpec::with_num_threads(team_size()), |ctx| {
        match ctx.thread_num() {
            0 => *probe.lock().unwrap() = Some(Probe::start()),
            1 => std::thread::sleep(HOLD),
            _ => {}
        }
    });
    let m = probe.into_inner().unwrap().unwrap().stop();
    assert_slept("join", m);
}

#[test]
fn passive_wait_policy_regions_work() {
    passive();
    let sum = AtomicU64::new(0);
    omp_parallel!(num_threads(team_size()), |ctx| {
        omp_for!(
            ctx,
            schedule(dynamic),
            for i in 0..500 {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            }
        );
        omp_barrier!(ctx);
    });
    assert_eq!(sum.load(Ordering::Relaxed), 499 * 500 / 2);
}
