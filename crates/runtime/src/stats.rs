//! Runtime statistics counters.
//!
//! Cheap relaxed atomic counters recording how often the runtime's major
//! code paths fire. The repo benchmark (`benchmark/`) and several tests
//! use these to assert that the intended machinery actually ran
//! (e.g. that a `schedule(dynamic)` loop really went through the shared
//! dispatcher, or that task stealing occurred under imbalance). The
//! tasking counters — spawned / executed / inline / stolen /
//! dependence-stalled — make the dependence-graph scheduler observable:
//! [`display_stats`] renders them in the style of the
//! `OMP_DISPLAY_ENV` banner ([`crate::env::display_env`] appends it).

use std::sync::atomic::{AtomicU64, Ordering};

/// Global counters, one per interesting runtime event.
#[derive(Debug, Default)]
pub struct Stats {
    /// Parallel regions started (including serialized ones).
    pub forks: AtomicU64,
    /// Parallel regions that were serialized (team of one).
    pub serialized_forks: AtomicU64,
    /// Explicit + implicit barrier episodes completed.
    pub barriers: AtomicU64,
    /// Chunks handed out by dynamic/guided dispatchers.
    pub dispatched_chunks: AtomicU64,
    /// Explicit tasks created (deferred or undeferred).
    pub tasks_spawned: AtomicU64,
    /// Explicit tasks executed.
    pub tasks_executed: AtomicU64,
    /// Explicit tasks executed undeferred on the encountering thread
    /// (`if(false)`, `final`, included tasks).
    pub tasks_inline: AtomicU64,
    /// Tasks executed by a thread other than the one that created them.
    pub tasks_stolen: AtomicU64,
    /// Tasks held back by the dependence graph (unmet `depend`
    /// predecessors at creation time).
    pub tasks_dep_stalled: AtomicU64,
    /// Worker threads ever spawned by the pool.
    pub workers_spawned: AtomicU64,
    /// Worker spawn attempts that failed (OS refused the thread, or a
    /// test injected a failure); each one rolled back its thread-limit
    /// reservation and degraded the requesting fork to a short team.
    pub worker_spawn_failures: AtomicU64,
    /// Idle workers a master acquired from its own home shard.
    pub pool_acquires_local: AtomicU64,
    /// Idle workers a master had to steal from another master's shard
    /// (its home shard had run dry).
    pub pool_acquires_stolen: AtomicU64,
    /// Shard free-list `try_lock` misses — two masters collided on the
    /// same shard at the same instant.
    pub pool_shard_contention: AtomicU64,
    /// Lock acquisitions that had to spin (contended).
    pub contended_locks: AtomicU64,
    /// Forks served by a cached hot team (doorbell fast path).
    pub hot_team_hits: AtomicU64,
    /// Forks that looked for a cached hot team, found none and built one
    /// from the pool. (A fork whose lease may not be kept — hot teams
    /// off, or forked from a `final` task — counts as neither hit nor
    /// miss.)
    pub hot_team_misses: AtomicU64,
    /// Forks that rebuilt a cached hot team because `num_threads` or a
    /// team-shape ICV (wait policy, `dyn-var`) changed.
    pub hot_team_resizes: AtomicU64,
    /// Hot-team hits at nesting level ≥ 1 (a worker's own cached
    /// sub-team answered a nested fork; also counted in
    /// `hot_team_hits`).
    pub hot_team_nested_hits: AtomicU64,
    /// Hot-team builds at nesting level ≥ 1 (also counted in
    /// `hot_team_misses`/`hot_team_resizes`).
    pub hot_team_nested_misses: AtomicU64,
    /// Threads successfully bound to an `OMP_PLACES` place
    /// (`sched_setaffinity` accepted the mask).
    pub affinity_binds: AtomicU64,
    /// Bind attempts the kernel (or an unsupported platform) rejected;
    /// each degrades gracefully to an unbound thread.
    pub affinity_bind_failures: AtomicU64,
    /// `cancel` requests that activated cancellation (cancel-var was
    /// true and the flag was raised).
    pub cancels_activated: AtomicU64,
    /// Explicit tasks discarded without running their body (their
    /// taskgroup or parallel region was cancelled before they started).
    pub tasks_discarded: AtomicU64,
    /// Explicit tasks dropped by `TaskSystem::purge`
    /// after an aborted (panicked) region, without running their body.
    /// Together with executed + discarded this closes the task ledger:
    /// every spawned task is accounted by exactly one of the three.
    pub tasks_purged: AtomicU64,
    /// Kernel-variant registry calls measured while their entry was
    /// still probing ([`crate::variants`]).
    pub tune_probes: AtomicU64,
    /// Kernel-variant registry entries that locked to a winner.
    pub tune_converged: AtomicU64,
}

static STATS: Stats = Stats {
    forks: AtomicU64::new(0),
    serialized_forks: AtomicU64::new(0),
    barriers: AtomicU64::new(0),
    dispatched_chunks: AtomicU64::new(0),
    tasks_spawned: AtomicU64::new(0),
    tasks_executed: AtomicU64::new(0),
    tasks_inline: AtomicU64::new(0),
    tasks_stolen: AtomicU64::new(0),
    tasks_dep_stalled: AtomicU64::new(0),
    workers_spawned: AtomicU64::new(0),
    worker_spawn_failures: AtomicU64::new(0),
    pool_acquires_local: AtomicU64::new(0),
    pool_acquires_stolen: AtomicU64::new(0),
    pool_shard_contention: AtomicU64::new(0),
    contended_locks: AtomicU64::new(0),
    hot_team_hits: AtomicU64::new(0),
    hot_team_misses: AtomicU64::new(0),
    hot_team_resizes: AtomicU64::new(0),
    hot_team_nested_hits: AtomicU64::new(0),
    hot_team_nested_misses: AtomicU64::new(0),
    affinity_binds: AtomicU64::new(0),
    affinity_bind_failures: AtomicU64::new(0),
    cancels_activated: AtomicU64::new(0),
    tasks_discarded: AtomicU64::new(0),
    tasks_purged: AtomicU64::new(0),
    tune_probes: AtomicU64::new(0),
    tune_converged: AtomicU64::new(0),
};

/// Access the global statistics block.
pub fn stats() -> &'static Stats {
    &STATS
}

/// A point-in-time copy of all counters, convenient for before/after diffs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// See [`Stats::forks`].
    pub forks: u64,
    /// See [`Stats::serialized_forks`].
    pub serialized_forks: u64,
    /// See [`Stats::barriers`].
    pub barriers: u64,
    /// See [`Stats::dispatched_chunks`].
    pub dispatched_chunks: u64,
    /// See [`Stats::tasks_spawned`].
    pub tasks_spawned: u64,
    /// See [`Stats::tasks_executed`].
    pub tasks_executed: u64,
    /// See [`Stats::tasks_inline`].
    pub tasks_inline: u64,
    /// See [`Stats::tasks_stolen`].
    pub tasks_stolen: u64,
    /// See [`Stats::tasks_dep_stalled`].
    pub tasks_dep_stalled: u64,
    /// See [`Stats::workers_spawned`].
    pub workers_spawned: u64,
    /// See [`Stats::worker_spawn_failures`].
    pub worker_spawn_failures: u64,
    /// See [`Stats::pool_acquires_local`].
    pub pool_acquires_local: u64,
    /// See [`Stats::pool_acquires_stolen`].
    pub pool_acquires_stolen: u64,
    /// See [`Stats::pool_shard_contention`].
    pub pool_shard_contention: u64,
    /// See [`Stats::contended_locks`].
    pub contended_locks: u64,
    /// See [`Stats::hot_team_hits`].
    pub hot_team_hits: u64,
    /// See [`Stats::hot_team_misses`].
    pub hot_team_misses: u64,
    /// See [`Stats::hot_team_resizes`].
    pub hot_team_resizes: u64,
    /// See [`Stats::hot_team_nested_hits`].
    pub hot_team_nested_hits: u64,
    /// See [`Stats::hot_team_nested_misses`].
    pub hot_team_nested_misses: u64,
    /// See [`Stats::affinity_binds`].
    pub affinity_binds: u64,
    /// See [`Stats::affinity_bind_failures`].
    pub affinity_bind_failures: u64,
    /// See [`Stats::cancels_activated`].
    pub cancels_activated: u64,
    /// See [`Stats::tasks_discarded`].
    pub tasks_discarded: u64,
    /// See [`Stats::tasks_purged`].
    pub tasks_purged: u64,
    /// See [`Stats::tune_probes`].
    pub tune_probes: u64,
    /// See [`Stats::tune_converged`].
    pub tune_converged: u64,
}

impl Stats {
    /// Copy every counter at once.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            forks: self.forks.load(Ordering::Relaxed),
            serialized_forks: self.serialized_forks.load(Ordering::Relaxed),
            barriers: self.barriers.load(Ordering::Relaxed),
            dispatched_chunks: self.dispatched_chunks.load(Ordering::Relaxed),
            tasks_spawned: self.tasks_spawned.load(Ordering::Relaxed),
            tasks_executed: self.tasks_executed.load(Ordering::Relaxed),
            tasks_inline: self.tasks_inline.load(Ordering::Relaxed),
            tasks_stolen: self.tasks_stolen.load(Ordering::Relaxed),
            tasks_dep_stalled: self.tasks_dep_stalled.load(Ordering::Relaxed),
            workers_spawned: self.workers_spawned.load(Ordering::Relaxed),
            worker_spawn_failures: self.worker_spawn_failures.load(Ordering::Relaxed),
            pool_acquires_local: self.pool_acquires_local.load(Ordering::Relaxed),
            pool_acquires_stolen: self.pool_acquires_stolen.load(Ordering::Relaxed),
            pool_shard_contention: self.pool_shard_contention.load(Ordering::Relaxed),
            contended_locks: self.contended_locks.load(Ordering::Relaxed),
            hot_team_hits: self.hot_team_hits.load(Ordering::Relaxed),
            hot_team_misses: self.hot_team_misses.load(Ordering::Relaxed),
            hot_team_resizes: self.hot_team_resizes.load(Ordering::Relaxed),
            hot_team_nested_hits: self.hot_team_nested_hits.load(Ordering::Relaxed),
            hot_team_nested_misses: self.hot_team_nested_misses.load(Ordering::Relaxed),
            affinity_binds: self.affinity_binds.load(Ordering::Relaxed),
            affinity_bind_failures: self.affinity_bind_failures.load(Ordering::Relaxed),
            cancels_activated: self.cancels_activated.load(Ordering::Relaxed),
            tasks_discarded: self.tasks_discarded.load(Ordering::Relaxed),
            tasks_purged: self.tasks_purged.load(Ordering::Relaxed),
            tune_probes: self.tune_probes.load(Ordering::Relaxed),
            tune_converged: self.tune_converged.load(Ordering::Relaxed),
        }
    }
}

impl Snapshot {
    /// Counter deltas between two snapshots (`later - self`).
    pub fn delta(&self, later: &Snapshot) -> Snapshot {
        Snapshot {
            forks: later.forks - self.forks,
            serialized_forks: later.serialized_forks - self.serialized_forks,
            barriers: later.barriers - self.barriers,
            dispatched_chunks: later.dispatched_chunks - self.dispatched_chunks,
            tasks_spawned: later.tasks_spawned - self.tasks_spawned,
            tasks_executed: later.tasks_executed - self.tasks_executed,
            tasks_inline: later.tasks_inline - self.tasks_inline,
            tasks_stolen: later.tasks_stolen - self.tasks_stolen,
            tasks_dep_stalled: later.tasks_dep_stalled - self.tasks_dep_stalled,
            workers_spawned: later.workers_spawned - self.workers_spawned,
            worker_spawn_failures: later.worker_spawn_failures - self.worker_spawn_failures,
            pool_acquires_local: later.pool_acquires_local - self.pool_acquires_local,
            pool_acquires_stolen: later.pool_acquires_stolen - self.pool_acquires_stolen,
            pool_shard_contention: later.pool_shard_contention - self.pool_shard_contention,
            contended_locks: later.contended_locks - self.contended_locks,
            hot_team_hits: later.hot_team_hits - self.hot_team_hits,
            hot_team_misses: later.hot_team_misses - self.hot_team_misses,
            hot_team_resizes: later.hot_team_resizes - self.hot_team_resizes,
            hot_team_nested_hits: later.hot_team_nested_hits - self.hot_team_nested_hits,
            hot_team_nested_misses: later.hot_team_nested_misses - self.hot_team_nested_misses,
            affinity_binds: later.affinity_binds - self.affinity_binds,
            affinity_bind_failures: later.affinity_bind_failures - self.affinity_bind_failures,
            cancels_activated: later.cancels_activated - self.cancels_activated,
            tasks_discarded: later.tasks_discarded - self.tasks_discarded,
            tasks_purged: later.tasks_purged - self.tasks_purged,
            tune_probes: later.tune_probes - self.tune_probes,
            tune_converged: later.tune_converged - self.tune_converged,
        }
    }
}

/// Render a snapshot's task-scheduler counters as a banner in the
/// `OMP_DISPLAY_ENV` style. The benchmark harness prints this after a
/// run so scheduler behavior (stealing, dependence stalls, inlining) is
/// visible next to the timings.
pub fn display_stats_snapshot(s: &Snapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "ROMP TASK STATISTICS BEGIN");
    let _ = writeln!(out, "  tasks_spawned = '{}'", s.tasks_spawned);
    let _ = writeln!(out, "  tasks_executed = '{}'", s.tasks_executed);
    let _ = writeln!(out, "  tasks_inline = '{}'", s.tasks_inline);
    let _ = writeln!(out, "  tasks_stolen = '{}'", s.tasks_stolen);
    let _ = writeln!(out, "  tasks_dep_stalled = '{}'", s.tasks_dep_stalled);
    let _ = writeln!(out, "  hot_team_hits = '{}'", s.hot_team_hits);
    let _ = writeln!(out, "  hot_team_misses = '{}'", s.hot_team_misses);
    let _ = writeln!(out, "  hot_team_resizes = '{}'", s.hot_team_resizes);
    let _ = writeln!(out, "  hot_team_nested_hits = '{}'", s.hot_team_nested_hits);
    let _ = writeln!(
        out,
        "  hot_team_nested_misses = '{}'",
        s.hot_team_nested_misses
    );
    let _ = writeln!(out, "  affinity_binds = '{}'", s.affinity_binds);
    let _ = writeln!(
        out,
        "  affinity_bind_failures = '{}'",
        s.affinity_bind_failures
    );
    let _ = writeln!(out, "  cancels_activated = '{}'", s.cancels_activated);
    let _ = writeln!(out, "  tasks_discarded = '{}'", s.tasks_discarded);
    let _ = writeln!(out, "  tasks_purged = '{}'", s.tasks_purged);
    let _ = writeln!(out, "  workers_spawned = '{}'", s.workers_spawned);
    let _ = writeln!(
        out,
        "  worker_spawn_failures = '{}'",
        s.worker_spawn_failures
    );
    let _ = writeln!(out, "  pool_acquires_local = '{}'", s.pool_acquires_local);
    let _ = writeln!(out, "  pool_acquires_stolen = '{}'", s.pool_acquires_stolen);
    let _ = writeln!(
        out,
        "  pool_shard_contention = '{}'",
        s.pool_shard_contention
    );
    let _ = writeln!(out, "  tune_probes = '{}'", s.tune_probes);
    let _ = writeln!(out, "  tune_converged = '{}'", s.tune_converged);
    let _ = writeln!(out, "ROMP TASK STATISTICS END");
    out
}

/// Render the worker pool's per-shard counters (acquired / stolen /
/// contended, one line per shard) in the same banner style. The
/// aggregate `pool_*` counters above say *whether* masters collided;
/// this says *where* — a single overloaded shard reads very differently
/// from uniform load.
pub fn display_pool_shard_counters() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "ROMP POOL SHARDS BEGIN");
    let _ = writeln!(out, "  pool_shard_count = '{}'", crate::pool::shard_count());
    for (i, (acquired, stolen, contended)) in crate::pool::shard_counters().iter().enumerate() {
        let _ = writeln!(
            out,
            "  pool_shard[{i}] = 'acquired={acquired} stolen={stolen} contended={contended}'"
        );
    }
    let _ = writeln!(out, "ROMP POOL SHARDS END");
    out
}

/// [`display_stats_snapshot`] over the live global counters, followed by
/// the live per-shard pool counters ([`display_pool_shard_counters`]) and
/// the kernel-variant registry
/// ([`crate::variants::display_variants_table`]).
pub fn display_stats() -> String {
    let mut out = display_stats_snapshot(&stats().snapshot());
    out.push_str(&display_pool_shard_counters());
    out.push_str(&crate::variants::display_variants_table());
    out
}

#[inline]
pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_is_monotone() {
        let before = stats().snapshot();
        bump(&stats().forks);
        bump(&stats().forks);
        bump(&stats().barriers);
        let after = stats().snapshot();
        let d = before.delta(&after);
        assert!(d.forks >= 2);
        assert!(d.barriers >= 1);
    }

    #[test]
    fn display_stats_lists_all_task_counters() {
        let banner = display_stats();
        for key in [
            "tasks_spawned",
            "tasks_executed",
            "tasks_inline",
            "tasks_stolen",
            "tasks_dep_stalled",
            "hot_team_hits",
            "hot_team_misses",
            "hot_team_resizes",
            "hot_team_nested_hits",
            "hot_team_nested_misses",
            "affinity_binds",
            "affinity_bind_failures",
            "cancels_activated",
            "tasks_discarded",
            "tasks_purged",
            "workers_spawned",
            "worker_spawn_failures",
            "pool_acquires_local",
            "pool_acquires_stolen",
            "pool_shard_contention",
            "pool_shard_count",
            "pool_shard[0]",
            "tune_probes",
            "tune_converged",
            "ROMP VARIANT REGISTRY BEGIN",
        ] {
            assert!(banner.contains(key), "missing {key} in:\n{banner}");
        }
    }
}
