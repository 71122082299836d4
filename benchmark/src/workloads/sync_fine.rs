//! `sync-fine`: the workload where the runtime does most of the work.
//!
//! One rep is a fixed script of constructs with empty or tiny bodies,
//! run in seeded block order: empty `parallel` regions; 1024-iteration
//! `parallel for` regions in every pairing of front end (raw `fork`,
//! builder, `omp_parallel_for!`) and schedule (static / dynamic,16 /
//! guided); in-region `barrier`, `reduction`, `critical` and `single`;
//! a 64-task taskgroup storm; the `npb::sw` task-dependence wavefront
//! and the `npb::search` cancellation exit, class A. Every
//! `parallel for` region is timed on its own: those are the latency
//! samples. Every block checks an exact count or a closed-form sum.

use crate::harness::{span_median, Cfg, Env, Workload};
use crate::metrics::Layer;
use crate::trace::{self, Span};
use crate::workloads::{rng, shuffle};
use romp::npb::{search, sw, Class};
use romp::prelude::*;
use romp::runtime::stats::stats;
use romp::runtime::{critical, icv, variants, SumOp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const FORKS: u64 = 8000;
const FOR_REGIONS: u64 = 500;
const FOR_TRIP: usize = 1024;
const IN_REGION: u64 = 16000;
/// `single` claims a workshare slot, and the seed runtime's slot
/// recycling (from the ninth slot construct of a region on) can lose a
/// `leave` and hang the team, so the script keeps every region within
/// the eight slots it starts with: `SINGLE_REGIONS` regions of eight.
const SINGLES_PER_REGION: u64 = 8;
const SINGLE_REGIONS: u64 = 500;
const TASK_GROUPS: u64 = 200;
const TASKS_PER_GROUP: u64 = 64;
const KERNEL_RUNS: u64 = 4;
/// `0 + 1 + … + 1023`.
const FOR_SUM: u64 = (FOR_TRIP as u64 * (FOR_TRIP as u64 - 1)) / 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Front {
    Raw,
    Builder,
    Macro,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sched {
    Static,
    Dynamic,
    Guided,
}

impl Sched {
    fn schedule(self) -> Schedule {
        match self {
            Sched::Static => Schedule::static_block(),
            Sched::Dynamic => Schedule::dynamic_chunk(16),
            Sched::Guided => Schedule::guided(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    ForkJoin,
    For(Front, Sched),
    Barrier,
    Reduction,
    Critical,
    Single,
    TaskStorm,
    Wavefront,
    Search,
}

impl Block {
    fn span(self) -> &'static str {
        match self {
            Block::ForkJoin => "runtime.fork_join",
            Block::For(Front::Raw, Sched::Static) => "core.for.raw.static",
            Block::For(Front::Raw, Sched::Dynamic) => "core.for.raw.dynamic",
            Block::For(Front::Raw, Sched::Guided) => "core.for.raw.guided",
            Block::For(Front::Builder, Sched::Static) => "core.for.builder.static",
            Block::For(Front::Builder, Sched::Dynamic) => "core.for.builder.dynamic",
            Block::For(Front::Builder, Sched::Guided) => "core.for.builder.guided",
            Block::For(Front::Macro, Sched::Static) => "core.for.macro.static",
            Block::For(Front::Macro, Sched::Dynamic) => "core.for.macro.dynamic",
            Block::For(Front::Macro, Sched::Guided) => "core.for.macro.guided",
            Block::Barrier => "runtime.barrier",
            Block::Reduction => "runtime.reduction",
            Block::Critical => "runtime.critical",
            Block::Single => "runtime.single",
            Block::TaskStorm => "runtime.task_storm",
            Block::Wavefront => "npb.sw.run",
            Block::Search => "npb.search.run",
        }
    }

    /// Constructs the block executes (the workload's unit of work).
    fn constructs(self) -> u64 {
        match self {
            Block::ForkJoin => FORKS,
            Block::For(..) => FOR_REGIONS,
            Block::Barrier | Block::Reduction | Block::Critical => IN_REGION,
            Block::Single => SINGLE_REGIONS * SINGLES_PER_REGION,
            Block::TaskStorm => TASK_GROUPS * TASKS_PER_GROUP,
            Block::Wavefront | Block::Search => KERNEL_RUNS,
        }
    }
}

const FRONTS: [Front; 3] = [Front::Raw, Front::Builder, Front::Macro];
const SCHEDS: [Sched; 3] = [Sched::Static, Sched::Dynamic, Sched::Guided];

/// Forks the cold-path probe makes, and lookups the registry probe makes.
const COLD_FORKS: u64 = 2000;
const SELECTS: u64 = 200_000;

/// The script.
pub struct SyncFine {
    script: Vec<Block>,
}

/// One `parallel for` of [`FOR_TRIP`] iterations summing its indices,
/// through `front` with `sched`; returns `(sum, iterations)`.
fn for_region(front: Front, sched: Sched, threads: usize) -> (u64, u64) {
    match front {
        Front::Raw => {
            let (sum, iters) = (AtomicU64::new(0), AtomicU64::new(0));
            fork(ForkSpec::with_num_threads(threads), |ctx| {
                let (mut s, mut n) = (0u64, 0u64);
                ctx.ws_for(0..FOR_TRIP, sched.schedule(), false, |i| {
                    s += i as u64;
                    n += 1;
                });
                sum.fetch_add(s, Ordering::Relaxed);
                iters.fetch_add(n, Ordering::Relaxed);
            });
            (sum.into_inner(), iters.into_inner())
        }
        Front::Builder => {
            // One u64 carries both: the index sum stays far below 2³²,
            // the iteration count rides above it.
            let packed = par_for(0..FOR_TRIP)
                .num_threads(threads)
                .schedule(sched.schedule())
                .reduce(SumOp, 0u64, |i, acc| *acc += i as u64 + (1 << 32));
            (packed & 0xffff_ffff, packed >> 32)
        }
        // The macro takes its schedule as a clause, so each kind is its
        // own expansion.
        Front::Macro => match sched {
            Sched::Static => omp_parallel_for!(
                num_threads(threads),
                schedule(static),
                reduction(+ : s = 0u64, n = 0u64),
                for i in 0..FOR_TRIP {
                    s += i as u64;
                    n += 1;
                }
            ),
            Sched::Dynamic => omp_parallel_for!(
                num_threads(threads),
                schedule(dynamic, 16),
                reduction(+ : s = 0u64, n = 0u64),
                for i in 0..FOR_TRIP {
                    s += i as u64;
                    n += 1;
                }
            ),
            Sched::Guided => omp_parallel_for!(
                num_threads(threads),
                schedule(guided),
                reduction(+ : s = 0u64, n = 0u64),
                for i in 0..FOR_TRIP {
                    s += i as u64;
                    n += 1;
                }
            ),
        },
    }
}

/// `count` repetitions of an in-region construct inside one region, so
/// the fork amortizes away.
fn in_region(threads: usize, count: u64, construct: impl Fn(&ThreadCtx<'_>) + Sync) {
    fork(ForkSpec::with_num_threads(threads), |ctx| {
        for _ in 0..count {
            construct(ctx);
        }
    });
}

/// A counter bumped by a plain load and store: only correct if the
/// construct around it really excludes the other threads.
fn unlocked_bump(c: &AtomicU64) {
    c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

impl SyncFine {
    /// Set-up: the seeded block order (the pool and the hot team are
    /// built by the warm-up rep).
    pub fn build(cfg: &Cfg) -> SyncFine {
        let mut script = vec![
            Block::ForkJoin,
            Block::Barrier,
            Block::Reduction,
            Block::Critical,
            Block::Single,
            Block::TaskStorm,
            Block::Wavefront,
            Block::Search,
        ];
        for f in FRONTS {
            for s in SCHEDS {
                script.push(Block::For(f, s));
            }
        }
        shuffle(&mut script, &mut rng(cfg.seed, 4));
        SyncFine { script }
    }

    fn run_block(&self, block: Block, threads: usize, env: &mut Env<'_>) {
        let t = threads as u64;
        match block {
            Block::ForkJoin => {
                let before = stats().snapshot();
                for _ in 0..FORKS {
                    fork(ForkSpec::with_num_threads(threads), |_| {});
                }
                let forks = before.delta(&stats().snapshot()).forks;
                env.checks.check(forks == FORKS, || {
                    format!("{forks} forks counted, {FORKS} made")
                });
            }
            Block::For(front, sched) => {
                let mut ok = true;
                for _ in 0..FOR_REGIONS {
                    let t0 = Instant::now();
                    let got = for_region(front, sched, threads);
                    env.lat_s.push(t0.elapsed().as_secs_f64());
                    ok &= got == (FOR_SUM, FOR_TRIP as u64);
                }
                env.checks
                    .check(ok, || format!("{}: wrong sum or trip count", block.span()));
            }
            Block::Barrier => {
                let before = stats().snapshot();
                in_region(threads, IN_REGION, |ctx| ctx.barrier());
                let barriers = before.delta(&stats().snapshot()).barriers;
                env.checks.check(barriers >= IN_REGION, || {
                    format!("{barriers} barrier episodes counted, {IN_REGION} made")
                });
            }
            Block::Reduction => {
                let total = AtomicU64::new(0);
                in_region(threads, IN_REGION, |ctx| {
                    let sum = ctx.reduce_value(SumOp, 1u64);
                    if ctx.thread_num() == 0 {
                        total.fetch_add(sum, Ordering::Relaxed);
                    }
                });
                let total = total.into_inner();
                env.checks.check(total == IN_REGION * t, || {
                    format!("reductions summed to {total}, want {}", IN_REGION * t)
                });
            }
            Block::Critical => {
                let count = AtomicU64::new(0);
                in_region(threads, IN_REGION, |_| critical(|| unlocked_bump(&count)));
                let count = count.into_inner();
                env.checks.check(count == IN_REGION * t, || {
                    format!("critical ran {count} times, want {}", IN_REGION * t)
                });
            }
            Block::Single => {
                let count = AtomicU64::new(0);
                for _ in 0..SINGLE_REGIONS {
                    in_region(threads, SINGLES_PER_REGION, |ctx| {
                        ctx.single(false, || unlocked_bump(&count));
                    });
                }
                let (count, want) = (count.into_inner(), block.constructs());
                env.checks.check(count == want, || {
                    format!("single ran {count} times, want {want}")
                });
            }
            Block::TaskStorm => {
                let ran = AtomicU64::new(0);
                fork(ForkSpec::with_num_threads(threads), |ctx| {
                    ctx.single(true, || {
                        for _ in 0..TASK_GROUPS {
                            ctx.taskgroup(|| {
                                for _ in 0..TASKS_PER_GROUP {
                                    ctx.task(|| {
                                        ran.fetch_add(1, Ordering::Relaxed);
                                    });
                                }
                            });
                        }
                    });
                });
                let ran = ran.into_inner();
                env.checks.check(ran == TASK_GROUPS * TASKS_PER_GROUP, || {
                    format!("{ran} tasks ran, want {}", TASK_GROUPS * TASKS_PER_GROUP)
                });
            }
            Block::Wavefront | Block::Search => {
                for _ in 0..KERNEL_RUNS {
                    let r = if block == Block::Wavefront {
                        sw::romp::run(Class::A, threads)
                    } else {
                        search::romp::run(Class::A, threads)
                    };
                    env.checks
                        .check(r.verified, || format!("verification failed: {r}"));
                }
            }
        }
    }
}

impl Workload for SyncFine {
    fn rep(&mut self, threads: usize, env: &mut Env<'_>) -> f64 {
        let mut constructs = 0;
        for &block in &self.script {
            trace::span(block.span(), env.op, || self.run_block(block, threads, env));
            constructs += block.constructs();
        }
        constructs as f64
    }

    fn probes(&mut self, threads: usize, _budget_s: f64, env: &mut Env<'_>) {
        // Fork/join with the hot-team cache off: every fork leases its
        // workers from the pool and hands them back.
        let was = icv::with_global_mut(|i| std::mem::replace(&mut i.hot_teams, false));
        trace::span("runtime.fork_join_cold", env.op, || {
            for _ in 0..COLD_FORKS {
                fork(ForkSpec::with_num_threads(threads), |_| {});
            }
        });
        icv::with_global_mut(|i| i.hot_teams = was);

        // A registry lookup on a locked entry: what every adaptive
        // kernel call pays before it runs anything.
        for _ in 0..64 {
            variants::run("bench-select", 1024, 2, |_| ());
        }
        trace::span("runtime.variant_select", env.op, || {
            for _ in 0..SELECTS {
                std::hint::black_box(variants::select("bench-select", 1024, 2).index());
            }
        });
    }

    fn layer_metrics(&self, spans: &[Span], out: &mut Layer) {
        let per = |block: Block, scale: f64| {
            span_median(spans, block.span()) * scale / block.constructs() as f64
        };
        out.set("runtime.fork_join_us", per(Block::ForkJoin, 1e6));
        out.set(
            "runtime.fork_join_cold_us",
            span_median(spans, "runtime.fork_join_cold") * 1e6 / COLD_FORKS as f64,
        );
        out.set("runtime.barrier_us", per(Block::Barrier, 1e6));
        out.set("runtime.reduction_us", per(Block::Reduction, 1e6));
        out.set("runtime.critical_us", per(Block::Critical, 1e6));
        out.set("runtime.single_us", per(Block::Single, 1e6));
        out.set("runtime.task_spawn_us", per(Block::TaskStorm, 1e6));
        out.set("runtime.taskdep_wavefront_ms", per(Block::Wavefront, 1e3));
        out.set("runtime.cancel_search_ms", per(Block::Search, 1e3));
        out.set(
            "runtime.variant_select_ns",
            span_median(spans, "runtime.variant_select") * 1e9 / SELECTS as f64,
        );
        // The 3×3 grid of region costs, by its two margins: per
        // schedule over the front ends, per front end over the schedules.
        let cell = |f: Front, s: Sched| per(Block::For(f, s), 1e6);
        let by_sched = |s: Sched| FRONTS.iter().map(|&f| cell(f, s)).sum::<f64>() / 3.0;
        let by_front = |f: Front| SCHEDS.iter().map(|&s| cell(f, s)).sum::<f64>() / 3.0;
        out.set("runtime.for_static_us", by_sched(Sched::Static));
        out.set("runtime.for_dynamic_us", by_sched(Sched::Dynamic));
        out.set("runtime.for_guided_us", by_sched(Sched::Guided));
        out.set("core.raw_for_us", by_front(Front::Raw));
        out.set("core.builder_for_us", by_front(Front::Builder));
        out.set("core.macro_for_us", by_front(Front::Macro));
        out.set(
            "core.directive_overhead_us",
            by_front(Front::Macro) - by_front(Front::Raw),
        );
    }
}
