//! Kernel-variant registry: measured selection between interchangeable
//! implementations.
//!
//! The GHOST library keys its sparse kernels by run-time parameters and
//! picks an implementation at call time; this module is that pattern
//! with the choice *learned* instead of table-driven. A call site
//! registers N interchangeable closures under a name; the registry
//! round-robins measurement windows across them (cost = seconds per
//! unit of work, i.e. the reciprocal of throughput) and then locks to
//! the best-throughput variant. The key includes the log2 work bucket,
//! so a kernel whose best variant depends on problem scale re-probes
//! when the scale changes.
//!
//! ```
//! use romp_runtime::variants;
//!
//! let n = 1u64 << 14;
//! let out = variants::run("demo-sum", n, 2, |which| match which {
//!     0 => (0..n).sum::<u64>(),
//!     _ => n * (n - 1) / 2,
//! });
//! assert_eq!(out, n * (n - 1) / 2);
//! ```
//!
//! Selection happens on the calling thread — for a parallel kernel,
//! select *before* the fork (or outside the construct) so the whole
//! team runs the same variant. Probe windows and lock-ins count as
//! `tune_probes` / `tune_converged` in [`crate::stats`].

use crate::wtime::get_wtime;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Cost samples per arm before the lock-in comparison.
const PROBE_ROUNDS: u32 = 3;

/// Probe-then-lock arm selector over `arms` candidates: deterministic
/// greedy probing (the ε=0 corner of ε-greedy). Cycle the arms
/// round-robin until each has [`PROBE_ROUNDS`] cost samples, then lock
/// to the arm with the lowest mean cost. Round-robin probing makes
/// every arm's sample count equal before the comparison, and locking
/// makes the steady state free of exploration noise. A kernel whose
/// behaviour shifts with scale is re-probed through the work bucket in
/// its key, not by unlocking.
#[derive(Debug)]
struct Learner {
    next: usize,
    count: Vec<u32>,
    total: Vec<f64>,
    locked: Option<usize>,
}

impl Learner {
    fn new(arms: usize) -> Self {
        debug_assert!(arms > 0);
        Learner {
            next: 0,
            count: vec![0; arms],
            total: vec![0.0; arms],
            locked: None,
        }
    }

    /// The arm to play now.
    fn decide(&self) -> usize {
        self.locked.unwrap_or(self.next)
    }

    /// Record one cost sample for `arm`. Returns `true` on the sample
    /// that causes the learner to lock (convergence).
    fn record(&mut self, arm: usize, cost: f64) -> bool {
        if self.locked.is_some() || arm >= self.count.len() {
            return false;
        }
        self.count[arm] += 1;
        self.total[arm] += cost.max(0.0);
        // Advance the probe cursor past fully-sampled arms. Concurrent
        // callers can over-sample an arm (select/select/record/record);
        // the cursor just skips ahead.
        while self.next < self.count.len() && self.count[self.next] >= PROBE_ROUNDS {
            self.next += 1;
        }
        if self.next < self.count.len() {
            return false;
        }
        // Every arm fully sampled: lock to the lowest mean cost.
        let best = (0..self.count.len())
            .min_by(|&a, &b| self.mean(a).total_cmp(&self.mean(b)))
            .unwrap_or(0);
        self.locked = Some(best);
        true
    }

    fn mean(&self, arm: usize) -> f64 {
        if self.count[arm] == 0 {
            f64::INFINITY
        } else {
            self.total[arm] / self.count[arm] as f64
        }
    }
}

/// Log2 work bucket: work sizes within a factor of two share a bucket
/// (and therefore a learner), so the choice tracks the kernel's
/// *scale* without fragmenting history over exact sizes.
fn trip_bucket(work: u64) -> u32 {
    64 - work.leading_zeros()
}

#[derive(Debug)]
struct VarState {
    learner: Learner,
    probes: u64,
}

#[derive(Debug)]
struct VarEntry {
    name: &'static str,
    bucket: u32,
    variants: usize,
    state: Mutex<VarState>,
}

/// (kernel name, log2 work bucket) → variant learner.
type VarMap = HashMap<(&'static str, u32), Arc<VarEntry>>;

fn registry() -> &'static Mutex<VarMap> {
    static REGISTRY: OnceLock<Mutex<VarMap>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn entry(name: &'static str, bucket: u32, n_variants: usize) -> Arc<VarEntry> {
    let mut reg = registry().lock();
    reg.entry((name, bucket))
        .or_insert_with(|| {
            Arc::new(VarEntry {
                name,
                bucket,
                variants: n_variants.max(1),
                state: Mutex::new(VarState {
                    learner: Learner::new(n_variants.max(1)),
                    probes: 0,
                }),
            })
        })
        .clone()
}

/// A pending variant selection: which implementation to run, plus the
/// key for reporting the measurement back via [`record`].
#[derive(Debug)]
#[must_use = "run the chosen variant and report it back with `record`"]
pub struct VariantChoice {
    entry: Arc<VarEntry>,
    index: usize,
    work: u64,
}

impl VariantChoice {
    /// Index of the variant to execute (`0..n_variants`).
    pub fn index(&self) -> usize {
        self.index
    }
}

/// Choose which of `n_variants` implementations of `name` to run for a
/// call doing `work` units (iterations, rows, bytes — any unit, as long
/// as it is proportional to the call's intrinsic cost).
pub fn select(name: &'static str, work: u64, n_variants: usize) -> VariantChoice {
    let e = entry(name, trip_bucket(work), n_variants);
    // `e.variants` is `n_variants.max(1)` at construction, so the `- 1`
    // cannot underflow even for a (nonsensical) zero-variant call; the
    // `min` also pins the index inside the *cached* entry's arm count
    // when a kernel name is re-registered with a different n_variants.
    let index = e.state.lock().learner.decide().min(e.variants - 1);
    VariantChoice {
        entry: e,
        index,
        work: work.max(1),
    }
}

/// Report the measured wall time of the variant chosen by [`select`].
pub fn record(choice: VariantChoice, elapsed_sec: f64) {
    let mut s = choice.entry.state.lock();
    if s.learner.locked.is_none() {
        s.probes += 1;
        crate::stats::bump(|s| &s.tune_probes);
        // Cost per unit of work: the learner minimizes it, which
        // maximizes throughput.
        if s.learner
            .record(choice.index, elapsed_sec.max(0.0) / choice.work as f64)
        {
            crate::stats::bump(|s| &s.tune_converged);
        }
    }
}

/// Select, time and record in one call: run the `body` with the chosen
/// variant index and return its result.
pub fn run<R>(
    name: &'static str,
    work: u64,
    n_variants: usize,
    body: impl FnOnce(usize) -> R,
) -> R {
    let choice = select(name, work, n_variants);
    let index = choice.index();
    let t0 = get_wtime();
    let out = body(index);
    record(choice, get_wtime() - t0);
    out
}

/// Machine-readable snapshot of one registry entry, so bench JSON and
/// tests can see *which* implementation each (kernel, scale) pair
/// locked to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariantSample {
    /// Kernel name as registered with [`select`]/[`run`].
    pub name: &'static str,
    /// Log2 work bucket the entry is keyed under.
    pub bucket: u32,
    /// How many interchangeable implementations were offered.
    pub n_variants: usize,
    /// The locked variant index, or `None` while still probing.
    pub chosen: Option<usize>,
    /// Measurement windows recorded so far.
    pub probes: u64,
}

/// Machine-readable snapshot of every live registry entry, sorted by
/// (name, bucket).
pub fn dump() -> Vec<VariantSample> {
    let mut entries: Vec<Arc<VarEntry>> = registry().lock().values().cloned().collect();
    entries.sort_by_key(|e| (e.name, e.bucket));
    entries
        .iter()
        .map(|e| {
            let s = e.state.lock();
            VariantSample {
                name: e.name,
                bucket: e.bucket,
                n_variants: e.variants,
                chosen: s.learner.locked,
                probes: s.probes,
            }
        })
        .collect()
}

/// Render the registry as a stats-banner section: one line per
/// (kernel, bucket) with the locked variant or probe progress.
pub fn display_variants_table() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "ROMP VARIANT REGISTRY BEGIN");
    let samples = dump();
    if samples.is_empty() {
        let _ = writeln!(out, "  (no registered kernels)");
    }
    for s in samples {
        let chosen = match s.chosen {
            Some(i) => format!("variant {i}/{}", s.n_variants),
            None => format!("probing {}-way", s.n_variants),
        };
        let _ = writeln!(
            out,
            "  kernel '{}' [2^{}] = {} (probes={})",
            s.name, s.bucket, chosen, s.probes
        );
    }
    let _ = writeln!(out, "ROMP VARIANT REGISTRY END");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learner_probes_round_robin_then_locks_to_cheapest() {
        let mut l = Learner::new(3);
        let costs = [5.0, 1.0, 3.0];
        let mut converged_events = 0;
        for _ in 0..(3 * PROBE_ROUNDS) {
            let arm = l.decide();
            if l.record(arm, costs[arm]) {
                converged_events += 1;
            }
        }
        assert_eq!(converged_events, 1);
        assert_eq!(l.locked, Some(1));
        // Locked: decide is stable and record is a no-op.
        assert_eq!(l.decide(), 1);
        assert!(!l.record(1, 100.0));
        assert_eq!(l.locked, Some(1));
    }

    #[test]
    fn learner_tolerates_oversampling() {
        let mut l = Learner::new(2);
        // Two callers probing concurrently: decide twice, record twice.
        // Extra samples pile onto the cursor arm, but the learner still
        // reaches full coverage and locks.
        let mut rounds = 0;
        while l.locked.is_none() {
            rounds += 1;
            assert!(rounds < 100, "oversampled learner never locked");
            let a = l.decide();
            let b = l.decide();
            l.record(a, 2.0);
            l.record(b, 2.0);
        }
    }

    #[test]
    fn trip_bucket_is_log2() {
        assert_eq!(trip_bucket(0), 0);
        assert_eq!(trip_bucket(1), 1);
        assert_eq!(trip_bucket(2), 2);
        assert_eq!(trip_bucket(3), 2);
        assert_eq!(trip_bucket(4), 3);
        assert_eq!(trip_bucket(1 << 20), 21);
        assert_eq!(trip_bucket(u64::MAX), 64);
    }

    #[test]
    fn registry_locks_to_the_fastest_variant() {
        // Unique name per test process run is unnecessary — the key is
        // this literal, private to this test.
        let name = "registry-test-fastest";
        let work = 1u64 << 10;
        let mut seen = Vec::new();
        for _ in 0..(3 * PROBE_ROUNDS + 4) {
            let c = select(name, work, 3);
            let i = c.index();
            seen.push(i);
            // Variant 1 is 10x faster.
            record(c, if i == 1 { 1e-6 } else { 1e-5 });
        }
        // After probing, every further selection is the fast variant.
        assert!(seen[(3 * PROBE_ROUNDS) as usize..].iter().all(|&i| i == 1));
    }

    #[test]
    fn bucket_change_reprobes() {
        let name = "registry-test-buckets";
        for _ in 0..PROBE_ROUNDS * 2 {
            let c = select(name, 100, 2);
            record(c, 1e-6);
        }
        // A different work scale lands in a fresh learner: probing
        // restarts from variant 0.
        let c = select(name, 1 << 20, 2);
        assert_eq!(c.index(), 0);
        record(c, 1e-6);
    }

    #[test]
    fn run_helper_returns_the_body_result() {
        let out = run("registry-test-run", 64, 2, |which| which + 41);
        assert!(out == 41 || out == 42);
    }

    #[test]
    fn dump_and_banner_expose_selection_state() {
        let name = "registry-test-dump";
        for _ in 0..(2 * PROBE_ROUNDS + 2) {
            let c = select(name, 1 << 8, 2);
            let i = c.index();
            record(c, if i == 0 { 1e-6 } else { 1e-5 });
        }
        let sample = dump()
            .into_iter()
            .find(|s| s.name == name)
            .expect("dumped entry");
        assert_eq!(sample.n_variants, 2);
        assert_eq!(sample.chosen, Some(0), "locked to the fast variant");
        assert!(sample.probes > 0);
        let banner = display_variants_table();
        assert!(banner.contains("ROMP VARIANT REGISTRY BEGIN"));
        assert!(banner.contains(name));
        assert!(banner.contains("variant 0/2"));
        assert!(banner.contains("ROMP VARIANT REGISTRY END"));
    }
}
