//! One run of one workload: set-up, warm-up, the timed phases, the
//! correctness tally and the metrics derived from them.
//!
//! A run is `set-up → warm-up rep → timed reps at T threads → timed
//! reps at 1 thread`. Every rep does the same fixed, verified work, so
//! `wall_s` is a median over reps, not a mean that one neighbour burst
//! on a shared box can drag. A traced run replaces the 1-thread phase
//! with a traced phase and the workload's layer probes.

use crate::json::Json;
use crate::metrics::{self, Layer};
use crate::stats::{
    highest_supported_percentile, median, percentile_sorted, samples_beyond, sorted,
};
use crate::trace::{self, Span};
use crate::{machine, workloads};
use romp::runtime::stats::{stats, Snapshot};
use std::time::Instant;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Workload name (one of [`metrics::WORKLOADS`]).
    pub workload: String,
    /// Seed of the one PRNG every generated input comes from.
    pub seed: u64,
    /// Length of the timed part, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end)?
    pub trace: bool,
    /// One rep, no baseline, no fresh-process set-up samples.
    pub smoke: bool,
    /// Compute threads `T`.
    pub threads: usize,
}

/// Tally of verified operations.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed the check.
    pub failed: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Checks {
    /// Count one verified operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// What a rep may write to besides its return value.
pub struct Env<'a> {
    /// Correctness tally.
    pub checks: &'a mut Checks,
    /// Per-operation latencies (seconds), for workloads whose operations
    /// are smaller than a rep. Left empty, the rep itself is the
    /// operation.
    pub lat_s: &'a mut Vec<f64>,
    /// Identifier the rep's spans carry.
    pub op: u64,
}

/// One timed rep.
#[derive(Debug, Clone, Copy)]
pub struct RepSample {
    /// Wall time of the rep.
    pub secs: f64,
    /// Work units it completed.
    pub work: f64,
    /// `(p50, p95)` of the rep's own operation latencies (seconds), when
    /// the rep alone holds enough operations to carry a 95th percentile.
    pub tail_s: Option<(f64, f64)>,
}

/// Result of a timed phase.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Every rep of the phase.
    pub samples: Vec<RepSample>,
    /// Runtime counters per rep, by [`trace::counter_fields`] name (the
    /// last rep's delta: reps repeat the same script, so these are
    /// exact wherever the program is deterministic).
    pub counters: Vec<(&'static str, f64)>,
}

/// The reported counters of `delta`, scaled by `per_rep` (1 when the
/// delta covers exactly one rep).
pub fn per_rep_counters(delta: &Snapshot, per_rep: f64) -> Vec<(&'static str, f64)> {
    trace::counter_fields(delta)
        .into_iter()
        .map(|(k, v)| (k, v as f64 * per_rep))
        .collect()
}

/// A workload: built once (its set-up), then asked for reps.
pub trait Workload {
    /// One rep of the workload's fixed, verified work on `threads`
    /// threads. Returns the work units done.
    fn rep(&mut self, threads: usize, env: &mut Env<'_>) -> f64;

    /// Reps back to back for `budget_s`, at least `min_reps`. A rep is
    /// started only if half of it is expected to fit (judging by the
    /// last one), so phases neither overrun nor undershoot on average.
    fn phase(
        &mut self,
        threads: usize,
        budget_s: f64,
        min_reps: usize,
        env: &mut Env<'_>,
    ) -> PhaseOut {
        let t0 = Instant::now();
        let mut out = PhaseOut::default();
        let mut last = 0.0;
        while out.samples.len() < min_reps || t0.elapsed().as_secs_f64() + last / 2.0 < budget_s {
            env.op += 1;
            let before = stats().snapshot();
            let had = env.lat_s.len();
            let t = Instant::now();
            let work = trace::span("bench.rep", env.op, || self.rep(threads, env));
            let secs = t.elapsed().as_secs_f64();
            if env.lat_s.len() == had {
                env.lat_s.push(secs);
            }
            let ops = sorted(&env.lat_s[had..]);
            let tail_s = (samples_beyond(ops.len(), 95.0) >= 10)
                .then(|| (percentile_sorted(&ops, 50.0), percentile_sorted(&ops, 95.0)));
            out.counters = per_rep_counters(&before.delta(&stats().snapshot()), 1.0);
            out.samples.push(RepSample { secs, work, tail_s });
            last = secs;
        }
        out
    }

    /// Does a 1-thread run differ from the `T`-thread one?
    fn has_one_thread_baseline(&self) -> bool {
        true
    }

    /// Traced runs only: the extra measurements the per-layer metrics
    /// need and the end-to-end rep does not contain (reference
    /// variants, 1-thread kernels, microprobes), within `budget_s`.
    fn probes(&mut self, _threads: usize, _budget_s: f64, _env: &mut Env<'_>) {}

    /// Derive this workload's per-layer metrics from the recorded spans.
    fn layer_metrics(&self, spans: &[Span], out: &mut Layer);
}

/// Median duration (seconds) of the spans called `name`; 0 when the
/// workload never made that call.
pub fn span_median(spans: &[Span], name: &str) -> f64 {
    let d = trace::durations(spans, name);
    if d.is_empty() {
        0.0
    } else {
        median(&d)
    }
}

/// Everything one run measured.
pub struct Outcome {
    /// The tally.
    pub checks: Checks,
    /// `(name, value)` of every metric the run's mode prints.
    pub metrics: Vec<(metrics::Def, f64)>,
    /// Canary drift over the run exceeded 5%.
    pub disturbed: bool,
}

impl Outcome {
    /// The contract's result line.
    pub fn result_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.checks.failed == 0)),
            ("attempted", Json::Num(self.checks.attempted as f64)),
            ("failed", Json::Num(self.checks.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(d, v)| {
                    (
                        d.name.clone(),
                        Json::obj([("value", Json::Num(*v)), ("unit", Json::Str(d.unit.into()))]),
                    )
                })),
            ),
        ])
    }
}

/// Cold-start time of a fresh process: exec → inputs generated →
/// structures built → pool spawned → warm-up rep done. Only a fresh
/// process pays the first-call costs (learner probing, memoized
/// references, worker spawn), so that is what is sampled.
fn fresh_process_setup_s(cfg: &Cfg) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", &cfg.workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--threads", &cfg.threads.to_string()])
        .arg("--setup-only")
        .output()
        .map_err(|e| format!("spawn set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("set-up child printed no time: {e}"))
}

/// Build the workload and run its warm-up rep; returns it with the
/// set-up time. The warm-up is part of set-up: it is where the pool is
/// spawned, the hot team built and the tune learners locked.
fn setup_and_warm(cfg: &Cfg, checks: &mut Checks) -> Result<(Box<dyn Workload>, f64), String> {
    let t0 = Instant::now();
    let mut wl = trace::span("bench.setup", 0, || workloads::build(cfg, checks))?;
    let mut lat = Vec::new();
    let mut env = Env {
        checks,
        lat_s: &mut lat,
        op: 0,
    };
    trace::span("bench.warmup", 0, || wl.rep(cfg.threads, &mut env));
    Ok((wl, t0.elapsed().as_secs_f64()))
}

/// `--setup-only`: what [`fresh_process_setup_s`] runs in the child.
pub fn run_setup_only(cfg: &Cfg) -> Result<f64, String> {
    let mut checks = Checks::default();
    let (_wl, secs) = setup_and_warm(cfg, &mut checks)?;
    if checks.failed > 0 {
        return Err(format!("set-up verification failed: {:?}", checks.notes));
    }
    Ok(secs)
}

fn median_secs(samples: &[RepSample]) -> f64 {
    median(&samples.iter().map(|s| s.secs).collect::<Vec<_>>())
}

/// The untraced pass: the end-to-end metrics.
///
/// The `T`-thread and 1-thread phases alternate in [`ROUNDS`] rounds
/// (70 % / 30 % of the time) instead of running as two blocks, so each
/// median samples the whole window: on a shared host the speed of
/// memory drifts over seconds, and a 3-second block can sit entirely
/// inside one slow spell.
fn end_to_end(
    cfg: &Cfg,
    wl: &mut dyn Workload,
    checks: &mut Checks,
    setups: &[f64],
) -> Vec<(metrics::Def, f64)> {
    const ROUNDS: usize = 3;
    let mut lat = Vec::new();
    let has_1t = wl.has_one_thread_baseline() && !cfg.smoke;
    let (rounds, share) = match (cfg.smoke, has_1t) {
        (true, _) => (1, 0.0),
        (false, true) => (ROUNDS, 0.7),
        (false, false) => (1, 1.0),
    };
    let slice = cfg.seconds / rounds as f64;
    let (mut at_t, mut at_1) = (Vec::new(), Vec::new());
    let mut env = Env {
        checks,
        lat_s: &mut lat,
        op: 0,
    };
    for _ in 0..rounds {
        at_t.extend(wl.phase(cfg.threads, slice * share, 1, &mut env).samples);
        if has_1t {
            // The latency metrics are about the `T`-thread run only.
            let keep = env.lat_s.len();
            at_1.extend(wl.phase(1, slice * (1.0 - share), 1, &mut env).samples);
            env.lat_s.truncate(keep);
        }
    }
    let wall = median_secs(&at_t);
    // A single-threaded workload is its own 1-thread baseline.
    let wall_1t = if at_1.is_empty() {
        wall
    } else {
        median_secs(&at_1)
    };
    // Operation latency. Where every rep alone carries a 95th
    // percentile (ten samples beyond it), take each rep's percentiles
    // and report their medians: a noisy spell then costs a rep or two,
    // not the pooled tail. Otherwise pool the run's samples; and with
    // too few even for that (the batch workloads, whose operation is
    // the rep) the median is the highest percentile the samples carry,
    // and is reported for both.
    let rep_tails: Option<Vec<(f64, f64)>> = at_t.iter().map(|s| s.tail_s).collect();
    let (p50_s, p95_s) = match rep_tails {
        Some(t) => (
            median(&t.iter().map(|t| t.0).collect::<Vec<_>>()),
            median(&t.iter().map(|t| t.1).collect::<Vec<_>>()),
        ),
        None => {
            let lat = sorted(&lat);
            let tail = highest_supported_percentile(lat.len(), &[50.0, 95.0]).unwrap_or(50.0);
            (percentile_sorted(&lat, 50.0), percentile_sorted(&lat, tail))
        }
    };
    let values = [
        median(setups),
        wall,
        at_t[0].work / wall,
        wall_1t,
        p50_s * 1e3,
        p95_s * 1e3,
        machine::peak_rss_mb(),
    ];
    metrics::end_to_end().into_iter().zip(values).collect()
}

/// The traced pass: the per-layer metrics, and the trace file.
fn per_layer(
    cfg: &Cfg,
    wl: &mut dyn Workload,
    checks: &mut Checks,
    canary_before: f64,
) -> Result<Vec<(metrics::Def, f64)>, String> {
    let mut lat = Vec::new();
    let mut env = Env {
        checks,
        lat_s: &mut lat,
        op: 0,
    };
    let untraced = wl.phase(cfg.threads, cfg.seconds * 0.25, 3, &mut env);
    trace::set_enabled(true);
    let traced = wl.phase(cfg.threads, cfg.seconds * 0.3, 3, &mut env);
    wl.probes(cfg.threads, cfg.seconds * 0.45, &mut env);
    trace::set_enabled(false);
    let (attempted, failed) = (env.checks.attempted, env.checks.failed);

    let spans = trace::snapshot();
    let mut layer = Layer::default();
    wl.layer_metrics(&spans, &mut layer);
    let counter = |want: &str| {
        let found = traced.counters.iter().find(|(name, _)| *name == want);
        found.map_or(0.0, |&(_, v)| v)
    };
    // Useful outcomes over attempts: forks the hot-team cache served
    // over forks that asked it.
    let hot_attempts =
        counter("hot_team_hits") + counter("hot_team_misses") + counter("hot_team_resizes");
    if hot_attempts > 0.0 {
        layer.set(
            "runtime.hot_hit_ratio",
            counter("hot_team_hits") / hot_attempts,
        );
    }
    for &(name, v) in &traced.counters {
        layer.set(format!("runtime.{name}"), v);
    }
    // Share of a rep that is the harness's own code (verification,
    // bookkeeping) rather than calls into a layer.
    let selfs = trace::self_times(&spans);
    let rep_self: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "bench.rep")
        .map(|(s, own)| own / s.secs())
        .collect();
    if !rep_self.is_empty() {
        layer.set("bench.harness_self_frac", median(&rep_self));
    }
    let canary_after = machine::canary_spin_ms();
    layer.set("bench.canary_spin_ms", (canary_before + canary_after) / 2.0);
    layer.set(
        "bench.canary_drift_frac",
        canary_drift(canary_before, canary_after),
    );
    layer.set(
        "bench.trace_overhead_frac",
        median_secs(&traced.samples) / median_secs(&untraced.samples) - 1.0,
    );
    layer.set("bench.failed_frac", failed as f64 / attempted.max(1) as f64);
    layer.set("bench.latency_samples", lat.len() as f64);
    layer.set("bench.reps", traced.samples.len() as f64);
    layer.set("bench.threads", cfg.threads as f64);
    layer.set("machine.llc_mb", machine::llc_mb());
    write_trace_file(cfg, &spans)?;
    let out = metrics::per_layer()
        .into_iter()
        .map(|d| {
            let v = layer.0.remove(&d.name).unwrap_or(0.0);
            (d, v)
        })
        .collect();
    debug_assert!(
        layer.0.is_empty(),
        "undeclared metrics: {:?}",
        layer.0.keys()
    );
    Ok(out)
}

fn canary_drift(before: f64, after: f64) -> f64 {
    (after - before).abs() / before.min(after)
}

/// Run one workload once.
pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let canary_before = machine::canary_spin_ms();
    // Two fresh processes plus this one: the median of three set-ups.
    let mut setups = Vec::new();
    if !cfg.smoke && !cfg.trace {
        for _ in 0..2 {
            setups.push(fresh_process_setup_s(cfg)?);
        }
    }
    trace::set_enabled(cfg.trace);
    let mut checks = Checks::default();
    let (mut wl, own_setup) = setup_and_warm(cfg, &mut checks)?;
    setups.push(own_setup);
    trace::set_enabled(false);

    let metrics = if cfg.trace {
        per_layer(cfg, wl.as_mut(), &mut checks, canary_before)?
    } else {
        end_to_end(cfg, wl.as_mut(), &mut checks, &setups)
    };
    let disturbed = canary_drift(canary_before, machine::canary_spin_ms()) > 0.05;
    Ok(Outcome {
        checks,
        metrics,
        disturbed,
    })
}

/// Directory the benchmark writes into (`benchmark/out/`).
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_trace_file(cfg: &Cfg, spans: &[Span]) -> Result<(), String> {
    let dir = out_dir();
    let path = dir.join(format!("trace-{}.json", cfg.workload));
    let doc = Json::obj([
        ("workload", Json::Str(cfg.workload.clone())),
        ("meta", machine::meta(cfg.threads, cfg.seed)),
        ("spans", trace::to_json(spans)),
    ]);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, doc.to_line() + "\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))
}
