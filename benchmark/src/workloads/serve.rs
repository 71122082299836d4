//! `serve-mixed`: many masters on one runtime.
//!
//! A **closed loop**: two client threads each pop the next job from a
//! seeded list when their previous one completes (today's callers wait
//! for their reply; an open-loop saturation sweep belongs to the
//! ROADMAP's `romp-serve` item). Each job runs on `max(1, T/2)` threads,
//! so the two clients together never exceed the machine, and
//! builds its own problem as a request would. `sync-fine` drives the
//! runtime from one master; this drives the same pool shards, variant
//! registry and tune tables from several.
//!
//! The mix, per period of 25 jobs in seeded order: 15 small CARP-CG
//! solves (banded, 5–9 k rows — the fast majority), 3 IS class W,
//! 2 CG class S, 5 Mandelbrot class S (the slow tail). Sorted by cost
//! that is CARP 0–60 %, IS –72 %, CG –80 %, Mandelbrot –100 %: the
//! median sits 10 points inside the CARP mass and p95 15 points inside
//! the Mandelbrot mass, so neither percentile straddles two job kinds.
//!
//! A "rep" is a window of 25 consecutive completions (one period's
//! worth of work), so `wall_s` is the median time to serve 25 jobs.

use crate::harness::{per_rep_counters, span_median, Cfg, Env, PhaseOut, RepSample, Workload};
use crate::metrics::Layer;
use crate::stats::{median, percentile_sorted, sorted};
use crate::trace::{self, Span};
use crate::workloads::{rng, shuffle};
use romp::npb::carp::{RESIDUAL_BAR, SELL_C, SELL_SIGMA};
use romp::npb::{cg, is, mandelbrot, Class};
use romp::runtime::pool;
use romp::runtime::stats::stats;
use romp::sparse::prelude::*;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Jobs per period, and per window.
pub const PERIOD: usize = 25;
const PERIODS: usize = 128;
const MIX: [(Kind, usize); 4] = [
    (Kind::Carp, 15),
    (Kind::Is, 3),
    (Kind::Cg, 2),
    (Kind::Mandelbrot, 5),
];

/// Job kinds, cheapest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// CARP-CG solve of a freshly built banded system.
    Carp,
    /// NPB IS class W.
    Is,
    /// NPB CG class S.
    Cg,
    /// Mandelbrot class S.
    Mandelbrot,
}

/// One request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// What to run.
    pub kind: Kind,
    /// Matrix order (CARP jobs only).
    pub n: usize,
}

/// The seeded request list: [`PERIODS`] periods, each the fixed mix in
/// its own shuffled order.
pub fn job_list(seed: u64) -> Vec<Job> {
    let mut r = rng(seed, 5);
    let mut jobs = Vec::with_capacity(PERIODS * PERIOD);
    for _ in 0..PERIODS {
        let mut period: Vec<Job> = MIX
            .iter()
            .flat_map(|&(kind, count)| std::iter::repeat_n(kind, count))
            .map(|kind| Job {
                kind,
                n: 5000 + r.next_below(4000),
            })
            .collect();
        shuffle(&mut period, &mut r);
        jobs.extend(period);
    }
    jobs
}

/// Run one job to its verified result.
fn run_job(job: Job, threads: usize, id: u64) -> bool {
    trace::span("bench.serve.job", id, || match job.kind {
        Kind::Carp => {
            let mat = trace::span("sparse.matgen", id, || matgen::banded(job.n, 8));
            let coloring = trace::span("sparse.color", id, || color::auto(&mat, 4));
            let colored = trace::span("sparse.colored_sell_build", id, || {
                ColoredSell::build(&mat, &coloring, SELL_C, SELL_SIGMA)
            });
            let norms = mat.row_norms_sq();
            let b = matgen::consistent_rhs(&mat);
            let csr_op = SweepMat::Csr {
                mat: &mat,
                coloring: &coloring,
            };
            let opts = CarpOptions {
                threads,
                ..Default::default()
            };
            let (out, _) = trace::span("sparse.carp_adaptive", id, || {
                carp_cg_adaptive(&csr_op, &SweepMat::Sell(&colored), &norms, &b, &opts)
            });
            out.converged && out.rel_residual <= RESIDUAL_BAR
        }
        Kind::Is => trace::span("npb.is.run", id, || is::romp::run(Class::W, threads)).verified,
        Kind::Cg => trace::span("npb.cg.run", id, || cg::romp::run(Class::S, threads)).verified,
        Kind::Mandelbrot => {
            trace::span("npb.mandelbrot.run", id, || {
                mandelbrot::romp::run(Class::S, threads)
            })
            .verified
        }
    })
}

struct Done {
    kind: Kind,
    latency_s: f64,
    pop_wait_s: f64,
    end_s: f64,
    ok: bool,
}

/// The service under a closed loop.
pub struct Serve {
    jobs: Vec<Job>,
    /// Next job to hand out; phases continue where the last one stopped.
    next: usize,
    threads: usize,
    by_kind: [Vec<f64>; 4],
    all: Vec<f64>,
    pop_wait: Vec<f64>,
    stranded: usize,
}

impl Serve {
    /// Set-up: the seeded job list.
    pub fn build(cfg: &Cfg) -> Serve {
        Serve {
            jobs: job_list(cfg.seed),
            next: 0,
            threads: cfg.threads,
            by_kind: Default::default(),
            all: Vec::new(),
            pop_wait: Vec::new(),
            stranded: 0,
        }
    }
}

impl Workload for Serve {
    fn rep(&mut self, threads: usize, env: &mut Env<'_>) -> f64 {
        self.phase(threads, 0.0, 1, env).samples[0].work
    }

    fn phase(
        &mut self,
        threads: usize,
        budget_s: f64,
        min_reps: usize,
        env: &mut Env<'_>,
    ) -> PhaseOut {
        // The 1-thread baseline is one client; otherwise two clients
        // split the `T` compute threads between their jobs.
        let (clients, job_threads) = if threads == 1 {
            (1, 1)
        } else {
            (2, (threads / 2).max(1))
        };
        // Start on a period boundary, so that every window of the phase
        // holds exactly the mix.
        let first = self.next.next_multiple_of(PERIOD);
        let cursor = Mutex::new(first);
        let jobs = &self.jobs;
        let before = stats().snapshot();
        let t0 = Instant::now();
        let mut done: Vec<Done> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let asked = Instant::now();
                            let idx = {
                                let mut next = cursor.lock().expect("job cursor poisoned");
                                if *next - first >= min_reps * PERIOD
                                    && t0.elapsed().as_secs_f64() >= budget_s
                                {
                                    break;
                                }
                                *next += 1;
                                *next - 1
                            };
                            let popped = Instant::now();
                            let job = jobs[idx % jobs.len()];
                            let ok = run_job(job, job_threads, idx as u64);
                            mine.push(Done {
                                kind: job.kind,
                                latency_s: popped.elapsed().as_secs_f64(),
                                pop_wait_s: (popped - asked).as_secs_f64(),
                                end_s: t0.elapsed().as_secs_f64(),
                                ok,
                            });
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("serve client panicked"))
                .collect()
        });
        let delta = before.delta(&stats().snapshot());
        self.next = cursor.into_inner().expect("job cursor poisoned");

        // Every worker must be back on an idle list once the clients
        // are gone: a stranded one is a leaked lease.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool::idle_workers() != pool::pool_size() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.stranded = pool::pool_size() - pool::idle_workers();
        env.checks.check(self.stranded == 0, || {
            format!("{} workers stranded after the clients left", self.stranded)
        });

        done.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
        let mut out = PhaseOut {
            counters: per_rep_counters(&delta, PERIOD as f64 / done.len() as f64),
            ..Default::default()
        };
        let mut window_start = 0.0;
        for window in done.chunks_exact(PERIOD) {
            let end = window[PERIOD - 1].end_s;
            out.samples.push(RepSample {
                secs: end - window_start,
                work: PERIOD as f64,
                tail_s: None,
            });
            window_start = end;
        }
        for d in &done {
            env.checks
                .check(d.ok, || format!("{:?} job failed verification", d.kind));
            env.lat_s.push(d.latency_s);
            if threads == self.threads {
                self.by_kind[d.kind as usize].push(d.latency_s);
                self.all.push(d.latency_s);
                self.pop_wait.push(d.pop_wait_s);
            }
        }
        out
    }

    fn layer_metrics(&self, spans: &[Span], out: &mut Layer) {
        let all = sorted(&self.all);
        out.set(
            "bench.serve.latency_p99_ms",
            percentile_sorted(&all, 99.0) * 1e3,
        );
        out.set(
            "bench.serve.latency_max_ms",
            percentile_sorted(&all, 100.0) * 1e3,
        );
        for (kind, name) in ["carp", "is", "cg", "mandelbrot"].iter().enumerate() {
            out.set(
                format!("bench.serve.p50_ms_{name}"),
                median(&self.by_kind[kind]) * 1e3,
            );
        }
        out.set("bench.serve.pop_wait_us", median(&self.pop_wait) * 1e6);
        out.set("bench.serve.stranded_workers", self.stranded as f64);
        // Each job builds its own system, so the sparse set-up steps are
        // on the request path here.
        out.set("sparse.matgen_s", span_median(spans, "sparse.matgen"));
        out.set("sparse.color_s", span_median(spans, "sparse.color"));
        out.set(
            "sparse.sell_build_s",
            span_median(spans, "sparse.colored_sell_build"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_list_is_seeded_and_every_period_has_the_mix() {
        let a = job_list(5);
        assert_eq!(a, job_list(5));
        assert_ne!(a, job_list(6));
        assert_eq!(a.len(), PERIODS * PERIOD);
        for period in a.chunks(PERIOD) {
            for (kind, count) in MIX {
                assert_eq!(period.iter().filter(|j| j.kind == kind).count(), count);
            }
        }
        assert_eq!(MIX.iter().map(|m| m.1).sum::<usize>(), PERIOD);
    }
}
