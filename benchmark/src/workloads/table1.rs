//! `table1-compute` and `table1-memory`: the paper's Table 1, split by
//! what bounds the kernels.
//!
//! * compute — NPB EP + Mandelbrot, class W. A handful of forks around
//!   pure arithmetic: the runtime and the sparse layer do almost
//!   nothing here, so this is the *bypass* workload for every change to
//!   them (prediction: no move).
//! * memory — NPB CG + IS, class A (a ~22 MB matrix and 2²³ keys, both
//!   far past the L2). Hundreds of fork/barrier/reduction episodes per
//!   run; CG's spmv goes through `romp::variants`.
//!
//! The NPB inputs are fixed by class — that is what lets every run be
//! checked against the official verification values — so the seed only
//! orders the kernels within a rep.

use crate::harness::{span_median, Cfg, Env, Workload};
use crate::metrics::Layer;
use crate::stats::median;
use crate::trace::{self, Span};
use crate::workloads::{rng, shuffle};
use romp::fortran::{global_registry, ArgVal};
use romp::npb::{cg, ep, is, mandelbrot, Class, KernelResult};
use std::collections::BTreeMap;
use std::time::Instant;

/// Which half of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Half {
    /// EP + Mandelbrot.
    Compute,
    /// CG + IS.
    Memory,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kernel {
    Cg,
    Is,
    Ep,
    Mandelbrot,
}

impl Kernel {
    fn name(self) -> &'static str {
        match self {
            Kernel::Cg => "cg",
            Kernel::Is => "is",
            Kernel::Ep => "ep",
            Kernel::Mandelbrot => "mandelbrot",
        }
    }

    /// Span names: the romp run at `T`, at one thread, and the
    /// reference variant.
    fn spans(self) -> [&'static str; 3] {
        match self {
            Kernel::Cg => ["npb.cg.run", "npb.cg.run_1t", "npb.cg.ref"],
            Kernel::Is => ["npb.is.run", "npb.is.run_1t", "npb.is.ref"],
            Kernel::Ep => ["npb.ep.run", "npb.ep.run_1t", "npb.ep.ref"],
            Kernel::Mandelbrot => [
                "npb.mandelbrot.run",
                "npb.mandelbrot.run_1t",
                "npb.mandelbrot.ref",
            ],
        }
    }
}

/// One half of Table 1.
pub struct Table1 {
    class: Class,
    /// The run's `T` (reps at any other count are the 1-thread baseline).
    threads: usize,
    order: Vec<Kernel>,
    cg: Option<cg::CgSetup>,
    /// Official MOP/s of every romp run at `T`, per kernel.
    mops: BTreeMap<Kernel, Vec<f64>>,
}

/// By-reference calls the bridge probe makes.
const FORTRAN_CALLS: u64 = 200_000;

impl Table1 {
    /// Set-up: CG's matrix (the other kernels generate their data
    /// inside the run, as the NPB codes do).
    pub fn build(cfg: &Cfg, half: Half) -> Table1 {
        let (class, mut order) = match half {
            Half::Compute => (Class::W, vec![Kernel::Ep, Kernel::Mandelbrot]),
            Half::Memory => (Class::A, vec![Kernel::Cg, Kernel::Is]),
        };
        shuffle(&mut order, &mut rng(cfg.seed, 1));
        let cg =
            (half == Half::Memory).then(|| trace::span("npb.cg.setup", 0, || cg::setup(class)));
        Table1 {
            class,
            threads: cfg.threads,
            order,
            cg,
            mops: BTreeMap::new(),
        }
    }

    fn run_romp(&self, k: Kernel, threads: usize) -> KernelResult {
        match k {
            Kernel::Cg => {
                cg::romp::run_with(self.cg.as_ref().expect("memory half has CG"), threads)
            }
            Kernel::Is => is::romp::run(self.class, threads),
            Kernel::Ep => ep::romp::run(self.class, threads),
            Kernel::Mandelbrot => mandelbrot::romp::run(self.class, threads),
        }
    }

    fn run_reference(&self, k: Kernel, threads: usize) -> KernelResult {
        match k {
            Kernel::Cg => {
                cg::reference::run_with(self.cg.as_ref().expect("memory half has CG"), threads)
            }
            Kernel::Is => is::reference::run(self.class, threads),
            Kernel::Ep => ep::reference::run(self.class, threads),
            Kernel::Mandelbrot => mandelbrot::reference::run(self.class, threads),
        }
    }
}

impl Workload for Table1 {
    fn rep(&mut self, threads: usize, env: &mut Env<'_>) -> f64 {
        let mut work = 0.0;
        for i in 0..self.order.len() {
            let k = self.order[i];
            let name = k.spans()[usize::from(threads != self.threads)];
            let r = trace::span(name, env.op, || self.run_romp(k, threads));
            env.checks
                .check(r.verified, || format!("NPB verification failed: {r}"));
            // The kernel's official operation count (its MOP/s figure
            // times its own timed section): fixed per class.
            work += r.mops * r.time_s;
            if threads == self.threads {
                self.mops.entry(k).or_default().push(r.mops);
            }
        }
        work
    }

    fn probes(&mut self, threads: usize, budget_s: f64, env: &mut Env<'_>) {
        // Reference runs, then 1-thread runs: up to 3 of each per kernel
        // while their share of the budget lasts, never fewer than 1.
        let t0 = Instant::now();
        let within = |share: f64, done: usize| {
            done == 0 || (done < 3 && t0.elapsed().as_secs_f64() < budget_s * share)
        };
        let mut done = 0;
        while within(0.45, done) {
            for &k in &self.order {
                let r = trace::span(k.spans()[2], env.op, || self.run_reference(k, threads));
                env.checks
                    .check(r.verified, || format!("NPB verification failed: {r}"));
            }
            done += 1;
        }
        done = 0;
        while within(0.9, done) {
            for &k in &self.order {
                let r = trace::span(k.spans()[1], env.op, || self.run_romp(k, 1));
                env.checks
                    .check(r.verified, || format!("NPB verification failed: {r}"));
            }
            done += 1;
        }
        if self.order.contains(&Kernel::Is) {
            for _ in 0..3 {
                let keys = trace::span("npb.is.keygen", env.op, || {
                    is::generate_keys(self.class, threads)
                });
                std::hint::black_box(keys);
            }
        }
        // The bridge itself: a by-reference call of a routine that does
        // nothing, through the mangled-name lookup the reference CG and
        // EP pay per call.
        global_registry().register("BENCH_NOP", |args| args[0].set_f64(1.0));
        let mut out = ArgVal::F64(0.0);
        trace::span("fortran.calls", env.op, || {
            for _ in 0..FORTRAN_CALLS {
                global_registry()
                    .call("bench_nop_", &mut [out.by_ref_mut()])
                    .expect("BENCH_NOP was registered above");
            }
        });
        env.checks
            .check(matches!(out, ArgVal::F64(v) if v == 1.0), || {
                "Fortran bridge did not write its by-reference result".into()
            });
    }

    fn layer_metrics(&self, spans: &[Span], out: &mut Layer) {
        for &k in &self.order {
            let n = k.name();
            let [run, run_1t, reference] = k.spans().map(|s| span_median(spans, s));
            out.set(format!("npb.{n}.time_s"), run);
            out.set(
                format!("npb.{n}.mops"),
                self.mops.get(&k).map_or(0.0, |v| median(v)),
            );
            out.set(format!("npb.{n}.ref_time_s"), reference);
            out.set(format!("npb.{n}.time_1t_s"), run_1t);
            if run > 0.0 {
                out.set(format!("npb.{n}.ref_over_romp"), reference / run);
                out.set(format!("npb.{n}.speedup"), run_1t / run);
            }
        }
        out.set("npb.cg.setup_s", span_median(spans, "npb.cg.setup"));
        out.set("npb.is.keygen_s", span_median(spans, "npb.is.keygen"));
        let calls = FORTRAN_CALLS as f64;
        out.set(
            "fortran.call_ns",
            span_median(spans, "fortran.calls") * 1e9 / calls,
        );
        out.set("fortran.calls", calls);
    }
}
