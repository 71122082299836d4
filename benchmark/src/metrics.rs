//! The metric dictionary: every name the benchmark may print, with its
//! unit and direction. `BENCHMARK.json` declares exactly these (a
//! self-test holds the two together), and a run prints exactly these:
//! a per-layer metric whose layer the workload never calls reads 0.

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Def {
    /// Metric name.
    pub name: String,
    /// Unit, as `BENCHMARK.json` spells it.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
}

fn def(name: impl Into<String>, unit: &'static str, higher_is_better: bool) -> Def {
    Def {
        name: name.into(),
        unit,
        higher_is_better,
    }
}

/// The workloads, in the order the full set runs them.
pub const WORKLOADS: [&str; 7] = [
    "table1-compute",
    "table1-memory",
    "sparse-banded",
    "sparse-random",
    "sync-fine",
    "serve-mixed",
    "translate",
];

/// The unit of work behind a workload's `throughput` (per second).
pub fn work_unit(workload: &str) -> &'static str {
    match workload {
        "table1-compute" | "table1-memory" => "Mop",
        "sparse-banded" | "sparse-random" => "GFLOP",
        "sync-fine" => "construct",
        "serve-mixed" => "job",
        "translate" => "line",
        _ => "work",
    }
}

/// What a user of the system sees. `throughput` is in the workload's
/// own unit of work per second (see the README's workload table).
pub fn end_to_end() -> Vec<Def> {
    vec![
        def("setup_s", "s", false),
        def("wall_s", "s", false),
        def("throughput", "work/s", true),
        def("wall_1t_s", "s", false),
        def("latency_p50_ms", "ms", false),
        def("latency_p95_ms", "ms", false),
        def("peak_rss_mb", "MB", false),
    ]
}

/// The NPB kernels that have per-kernel layer metrics.
pub const NPB_KERNELS: [&str; 4] = ["cg", "is", "ep", "mandelbrot"];

/// Single-layer metrics (layer = crate), unbounded.
pub fn per_layer() -> Vec<Def> {
    let mut d = Vec::new();
    for (name, unit) in [
        ("fork_join_us", "us"),
        ("fork_join_cold_us", "us"),
        ("barrier_us", "us"),
        ("for_static_us", "us"),
        ("for_dynamic_us", "us"),
        ("for_guided_us", "us"),
        ("reduction_us", "us"),
        ("critical_us", "us"),
        ("single_us", "us"),
        ("task_spawn_us", "us"),
        ("taskdep_wavefront_ms", "ms"),
        ("cancel_search_ms", "ms"),
        ("variant_select_ns", "ns"),
    ] {
        d.push(def(format!("runtime.{name}"), unit, false));
    }
    for (name, higher) in [
        ("forks", false),
        ("serialized_forks", false),
        ("barriers", false),
        ("dispatched_chunks", false),
        ("tasks_spawned", false),
        ("tasks_stolen", false),
        ("hot_team_hits", true),
        ("hot_team_misses", false),
        ("hot_team_resizes", false),
        ("workers_spawned", false),
        ("pool_acquires_local", true),
        ("pool_acquires_stolen", false),
        ("pool_shard_contention", false),
        ("contended_locks", false),
    ] {
        d.push(def(format!("runtime.{name}"), "count", higher));
    }
    d.push(def("runtime.hot_hit_ratio", "ratio", true));
    for name in [
        "raw_for_us",
        "builder_for_us",
        "macro_for_us",
        "directive_overhead_us",
    ] {
        d.push(def(format!("core.{name}"), "us", false));
    }
    for name in [
        "find_lines_per_s",
        "parse_directives_per_s",
        "translate_small_lines_per_s",
        "translate_large_lines_per_s",
    ] {
        d.push(def(format!("pragma.{name}"), "1/s", true));
    }
    d.push(def("pragma.scaling_ratio", "ratio", false));
    d.push(def("pragma.directives", "count", false));
    d.push(def("pragma.output_bytes", "B", false));
    d.push(def("fortran.call_ns", "ns", false));
    d.push(def("fortran.calls", "count", false));
    for k in NPB_KERNELS {
        d.push(def(format!("npb.{k}.time_s"), "s", false));
        d.push(def(format!("npb.{k}.mops"), "MOP/s", true));
        d.push(def(format!("npb.{k}.ref_time_s"), "s", false));
        d.push(def(format!("npb.{k}.ref_over_romp"), "ratio", true));
        d.push(def(format!("npb.{k}.time_1t_s"), "s", false));
        d.push(def(format!("npb.{k}.speedup"), "ratio", true));
    }
    d.push(def("npb.cg.setup_s", "s", false));
    d.push(def("npb.is.keygen_s", "s", false));
    for (name, unit, higher) in [
        ("matgen_s", "s", false),
        ("color_s", "s", false),
        ("coloring_phases", "count", false),
        ("sell_build_s", "s", false),
        ("sell_fill_ratio", "ratio", false),
        ("colored_sell_fill_ratio", "ratio", false),
        ("spmv_csr_gflops", "GFLOP/s", true),
        ("spmv_sell_gflops", "GFLOP/s", true),
        ("kacz_csr_gflops", "GFLOP/s", true),
        ("kacz_sell_gflops", "GFLOP/s", true),
        ("carp_csr_solve_s", "s", false),
        ("carp_sell_solve_s", "s", false),
        ("carp_iters", "count", false),
        ("carp_rel_residual", "ratio", false),
        ("carp_adaptive_pick", "index", false),
        ("nnz", "count", false),
        ("working_set_mb", "MB", false),
        ("bytes_per_spmv_computed", "B", false),
        ("flops_per_byte_computed", "flop/B", true),
    ] {
        d.push(def(format!("sparse.{name}"), unit, higher));
    }
    d.push(def("machine.llc_mb", "MB", true));
    for (name, unit) in [
        ("serve.latency_p99_ms", "ms"),
        ("serve.latency_max_ms", "ms"),
        ("serve.p50_ms_carp", "ms"),
        ("serve.p50_ms_is", "ms"),
        ("serve.p50_ms_cg", "ms"),
        ("serve.p50_ms_mandelbrot", "ms"),
        ("serve.pop_wait_us", "us"),
        ("serve.stranded_workers", "count"),
        ("canary_spin_ms", "ms"),
        ("canary_drift_frac", "ratio"),
        ("trace_overhead_frac", "ratio"),
        ("harness_self_frac", "ratio"),
        ("failed_frac", "ratio"),
        ("latency_samples", "count"),
        ("reps", "count"),
        ("threads", "count"),
    ] {
        d.push(def(format!("bench.{name}"), unit, false));
    }
    d
}

/// Per-layer values of one run, by name.
#[derive(Debug, Default, Clone)]
pub struct Layer(pub BTreeMap<String, f64>);

impl Layer {
    /// Record `name = value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_legal_and_unique() {
        let all: Vec<Def> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = BTreeSet::new();
        for d in &all {
            assert!(!d.name.is_empty() && d.name.len() <= 64, "{}", d.name);
            assert!(d.name.as_bytes()[0].is_ascii_alphanumeric(), "{}", d.name);
            assert!(
                d.name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{}",
                d.name
            );
            assert!(d.unit.len() <= 16, "{}", d.unit);
            assert!(
                d.unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{}",
                d.unit
            );
            assert!(seen.insert(d.name.clone()), "duplicate {}", d.name);
        }
        assert!(per_layer().len() <= 128);
        for w in WORKLOADS {
            assert!(seen.insert(w.to_string()), "workload name reused: {w}");
        }
    }
}
