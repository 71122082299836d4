//! EPCC-style synchronization-overhead suite (syncbench).
//!
//! Measures the per-invocation overhead of romp's synchronization
//! constructs — empty `parallel`, `for`, `barrier`, `single`,
//! `critical`, `reduction` — at 1/2/4 threads, in the style of the
//! EPCC OpenMP microbenchmarks: each construct is executed with an
//! empty body in a tight inner loop and the mean time per construct is
//! reported.
//!
//! **Cancellation probes** ride along: `for_armed` re-measures the
//! empty worksharing loop with `cancel-var` armed (the per-chunk flag
//! checks on the *non-cancelled* path — the acceptance bar is that the
//! disarmed `for` row does not move and the armed row stays within
//! noise of it), `cancellation_point` prices one explicit cancellation
//! point, `for1k_clean`/`for1k_cancelled` compare a 1024-iteration
//! dynamic loop run to completion vs. cancelled at its first chunk
//! (early-exit saving), and `taskgroup_cancel` prices spawning 32
//! tasks into a taskgroup and cancelling it before they run (discard
//! latency).
//!
//! The `parallel` rows are measured twice: with the **hot-team** cache
//! enabled (the default) and with `ROMP_HOT_TEAMS=0` semantics (the
//! `cold` rows: every fork leases its workers from the pool for one
//! region and hands them back, toggled in-process), so the cached
//! fork/join path is pinned against a fresh lease per region. Results are
//! printed as a table and written as machine-readable JSON (default
//! `BENCH_syncbench.json`) to seed the perf trajectory; the JSON's
//! `summary` block carries the headline `parallel@4` cold/hot ratio.
//!
//! The **nested probe** prices a 2×2 nested fork (an outer `parallel`
//! of two threads whose every member opens an inner `parallel` of two)
//! under `max-active-levels = 2`, hot vs cold and unbound vs
//! `proc_bind(spread)`. Hot mode exercises the hierarchical lease tree
//! — after warm-up no fork at either level may spawn an OS thread —
//! and the acceptance bar is hot beating cold by ≥3×.
//!
//! **Server mode** measures many-master fork *throughput*: M
//! concurrent masters (default M = 1/2/4/8) each drive a tight loop of
//! small parallel regions, and the suite reports aggregate regions/sec
//! plus the p99 per-fork latency across all masters, cold and hot. The
//! cold rows take and return workers on the pool's one idle list every
//! fork; the hot rows ring a cached team's doorbells and never touch it.
//!
//! Usage: `syncbench [--reps N] [--outer N] [--out PATH]
//! [--server-m 1,2,4,8] [--server-regions N] [--server-threads T]
//! [--no-server]`.

use romp_bench::{render_table, Args};
use romp_core::prelude::*;
use romp_runtime::stats::stats;
use romp_runtime::{critical, display_env, icv, CancelKind, ProcBind, SumOp};
use std::fmt::Write as _;
use std::time::Instant;

/// One measured cell.
struct Cell {
    construct: &'static str,
    threads: usize,
    mode: &'static str,
    per_construct_us: f64,
}

fn set_hot_teams(enabled: bool) {
    icv::with_global_mut(|i| i.hot_teams = enabled);
}

/// Set `cancel-var` process-wide, returning the previous value so the
/// armed probes can restore whatever the environment configured (the
/// baseline rows must all run under the *same*, user-chosen state).
fn set_cancellation(enabled: bool) -> bool {
    icv::with_global_mut(|i| std::mem::replace(&mut i.cancellation, enabled))
}

/// Mean seconds per inner repetition of `body`, over `outer` trials.
fn time_mean(outer: usize, reps: usize, mut body: impl FnMut(usize)) -> f64 {
    let mut total = 0.0;
    for _ in 0..outer {
        let t0 = Instant::now();
        body(reps);
        total += t0.elapsed().as_secs_f64() / reps as f64;
    }
    total / outer as f64
}

/// Overhead of an empty `parallel` region: one fork/join per rep.
fn bench_parallel(threads: usize, outer: usize, reps: usize) -> f64 {
    // Warm: build the team (hot) / the pool (cold) outside the timing.
    for _ in 0..20 {
        fork(ForkSpec::with_num_threads(threads), |_| {});
    }
    time_mean(outer, reps, |n| {
        for _ in 0..n {
            fork(ForkSpec::with_num_threads(threads), |_| {});
        }
    })
}

/// Overhead of an in-region construct: one fork whose body executes
/// `reps` constructs on every thread; the fork cost amortizes away.
fn bench_in_region(
    threads: usize,
    outer: usize,
    reps: usize,
    construct: impl Fn(&romp_runtime::ThreadCtx<'_>) + Sync,
) -> f64 {
    for _ in 0..20 {
        fork(ForkSpec::with_num_threads(threads), |_| {});
    }
    time_mean(outer, reps, |n| {
        fork(ForkSpec::with_num_threads(threads), |ctx| {
            for _ in 0..n {
                construct(ctx);
            }
        });
    })
}

// ---------------- nested-fork probe ----------------

/// One nested-probe measurement.
struct NestedCell {
    mode: &'static str,
    bind: &'static str,
    per_nest_us: f64,
}

/// Mean time of one 2×2 nested fork/join: an outer `parallel@2` whose
/// every thread opens an inner `parallel@2`. Warm-up builds the whole
/// team tree (hot) / grows the pool (cold) outside the timed window.
fn bench_nested(outer: usize, reps: usize) -> f64 {
    for _ in 0..20 {
        fork(ForkSpec::with_num_threads(2), |_| {
            fork(ForkSpec::with_num_threads(2), |_| {});
        });
    }
    time_mean(outer, reps, |n| {
        for _ in 0..n {
            fork(ForkSpec::with_num_threads(2), |_| {
                fork(ForkSpec::with_num_threads(2), |_| {});
            });
        }
    })
}

/// Measure the 2×2 nest in all four (bind × hot) configurations. The
/// bind is driven through the global `bind-var` list — inner forks
/// come from pool workers, which read the globals, not the master's
/// thread-local overrides.
fn run_nested_probe(outer: usize, reps: usize) -> Vec<NestedCell> {
    let prev_mal = icv::with_global_mut(|i| std::mem::replace(&mut i.max_active_levels, 2));
    let mut cells = Vec::new();
    for &(bind_name, bind) in &[("unbound", ProcBind::False), ("spread", ProcBind::Spread)] {
        let prev_bind = icv::with_global_mut(|i| std::mem::replace(&mut i.proc_bind, vec![bind]));
        for &mode in &["cold", "hot"] {
            set_hot_teams(mode == "hot");
            cells.push(NestedCell {
                mode,
                bind: bind_name,
                per_nest_us: bench_nested(outer, reps) * 1e6,
            });
        }
        icv::with_global_mut(|i| i.proc_bind = prev_bind);
    }
    set_hot_teams(true);
    icv::with_global_mut(|i| i.max_active_levels = prev_mal);
    cells
}

fn json_escape_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".into()
    }
}

// ---------------- server mode ----------------

/// One server-mode measurement: M masters hammering small regions.
struct ServerCell {
    masters: usize,
    mode: &'static str,
    regions_per_sec: f64,
    p99_fork_us: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).saturating_sub(1);
    sorted[idx.min(sorted.len() - 1)]
}

/// Run M concurrent masters, each forking `regions` small parallel
/// regions of `threads` threads, and measure aggregate throughput and
/// per-fork latency. Masters are freshly-spawned OS threads (so in hot
/// mode each gets its own cached team) and start together behind a
/// barrier; the wall clock spans the earliest start to the latest
/// finish.
fn run_server_cell(
    masters: usize,
    threads: usize,
    regions: usize,
    mode: &'static str,
) -> ServerCell {
    set_hot_teams(mode == "hot");
    let gate = std::sync::Arc::new(std::sync::Barrier::new(masters));
    let handles: Vec<_> = (0..masters)
        .map(|m| {
            let gate = gate.clone();
            std::thread::Builder::new()
                .name(format!("syncbench-master-{m}"))
                .spawn(move || {
                    // Warm this master's path (pool growth / hot-team
                    // build) outside the timed window.
                    for _ in 0..20 {
                        fork(ForkSpec::with_num_threads(threads), |_| {});
                    }
                    let mut lat = Vec::with_capacity(regions);
                    gate.wait();
                    let start = Instant::now();
                    for _ in 0..regions {
                        let t0 = Instant::now();
                        fork(ForkSpec::with_num_threads(threads), |_| {});
                        lat.push(t0.elapsed().as_secs_f64());
                    }
                    (start, start.elapsed(), lat)
                })
                .unwrap()
        })
        .collect();
    let mut all_lat = Vec::with_capacity(masters * regions);
    let mut first_start: Option<Instant> = None;
    let mut last_end: Option<Instant> = None;
    for h in handles {
        let (start, took, lat) = h.join().expect("server-mode master panicked");
        let end = start + took;
        first_start = Some(first_start.map_or(start, |s| s.min(start)));
        last_end = Some(last_end.map_or(end, |e| e.max(end)));
        all_lat.extend(lat);
    }
    let wall = last_end
        .unwrap()
        .duration_since(first_start.unwrap())
        .as_secs_f64();
    all_lat.sort_by(|a, b| a.total_cmp(b));
    ServerCell {
        masters,
        mode,
        regions_per_sec: (masters * regions) as f64 / wall,
        p99_fork_us: percentile(&all_lat, 0.99) * 1e6,
    }
}

fn run_server_mode(ms: &[usize], threads: usize, regions: usize) -> Vec<ServerCell> {
    let mut cells = Vec::new();
    for &mode in &["cold", "hot"] {
        for &m in ms {
            cells.push(run_server_cell(m, threads, regions, mode));
        }
    }
    set_hot_teams(true);
    cells
}

fn main() {
    let args = Args::parse();
    let reps: usize = args
        .value_of("reps")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000);
    let outer: usize = args
        .value_of("outer")
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let out_path = args.value_of("out").unwrap_or("BENCH_syncbench.json");
    let server_ms: Vec<usize> = args
        .value_of("server-m")
        .unwrap_or("1,2,4,8")
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&m| m > 0)
        .collect();
    let server_regions: usize = args
        .value_of("server-regions")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| (reps / 4).max(50));
    let server_threads: usize = args
        .value_of("server-threads")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
        .max(1);

    let thread_counts = [1usize, 2, 4];
    let mut cells: Vec<Cell> = Vec::new();

    for &mode in &["cold", "hot"] {
        set_hot_teams(mode == "hot");
        for &t in &thread_counts {
            cells.push(Cell {
                construct: "parallel",
                threads: t,
                mode,
                per_construct_us: bench_parallel(t, outer, reps) * 1e6,
            });
            let in_region: [(&'static str, f64); 5] = [
                (
                    "for",
                    bench_in_region(t, outer, reps, |ctx| {
                        ctx.ws_for(0..t, Schedule::static_block(), false, |_| {});
                    }),
                ),
                (
                    "barrier",
                    bench_in_region(t, outer, reps, |ctx| {
                        ctx.barrier();
                    }),
                ),
                (
                    "single",
                    bench_in_region(t, outer, reps, |ctx| {
                        ctx.single(false, || ());
                    }),
                ),
                (
                    "critical",
                    bench_in_region(t, outer, reps, |ctx| {
                        let _ = ctx; // critical is team-agnostic (named lock)
                        critical(|| ());
                    }),
                ),
                (
                    "reduction",
                    bench_in_region(t, outer, reps, |ctx| {
                        let _ = ctx.reduce_value(SumOp, 1u64);
                    }),
                ),
            ];
            for (construct, secs) in in_region {
                cells.push(Cell {
                    construct,
                    threads: t,
                    mode,
                    per_construct_us: secs * 1e6,
                });
            }
            // Cancellation probes (cancel-var armed for these only; the
            // rows above measure whatever the environment configured —
            // unarmed by default).
            let prev_cancel = set_cancellation(true);
            let armed: [(&'static str, f64); 5] = [
                (
                    "for_armed",
                    bench_in_region(t, outer, reps, |ctx| {
                        ctx.ws_for(0..t, Schedule::static_block(), false, |_| {});
                    }),
                ),
                (
                    "cancellation_point",
                    bench_in_region(t, outer, reps, |ctx| {
                        assert!(!ctx.cancellation_point(CancelKind::Parallel));
                    }),
                ),
                (
                    "for1k_clean",
                    bench_in_region(t, outer, reps / 8 + 1, |ctx| {
                        ctx.ws_for(0..1024, Schedule::dynamic_chunk(8), false, |_| {});
                    }),
                ),
                (
                    "for1k_cancelled",
                    bench_in_region(t, outer, reps / 8 + 1, |ctx| {
                        ctx.ws_for(0..1024, Schedule::dynamic_chunk(8), false, |i| {
                            if i == 0 {
                                ctx.cancel(CancelKind::For);
                            }
                        });
                    }),
                ),
                (
                    "taskgroup_cancel",
                    bench_in_region(t, outer, reps / 8 + 1, |ctx| {
                        ctx.taskgroup(|| {
                            for _ in 0..32 {
                                ctx.task(|| {});
                            }
                            ctx.cancel(CancelKind::Taskgroup);
                        });
                    }),
                ),
            ];
            set_cancellation(prev_cancel);
            for (construct, secs) in armed {
                cells.push(Cell {
                    construct,
                    threads: t,
                    mode,
                    per_construct_us: secs * 1e6,
                });
            }
        }
    }
    set_hot_teams(true);

    // ---------------- table ----------------
    let lookup = |construct: &str, threads: usize, mode: &str| {
        cells
            .iter()
            .find(|c| c.construct == construct && c.threads == threads && c.mode == mode)
            .map(|c| c.per_construct_us)
            .unwrap_or(f64::NAN)
    };
    let constructs = [
        "parallel",
        "for",
        "for_armed",
        "barrier",
        "single",
        "critical",
        "reduction",
        "cancellation_point",
        "for1k_clean",
        "for1k_cancelled",
        "taskgroup_cancel",
    ];
    let mut rows = Vec::new();
    for construct in constructs {
        for &t in &thread_counts {
            let cold = lookup(construct, t, "cold");
            let hot = lookup(construct, t, "hot");
            rows.push(vec![
                construct.to_string(),
                t.to_string(),
                format!("{cold:.2}"),
                format!("{hot:.2}"),
                format!("{:.2}x", cold / hot),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            "syncbench — per-construct overhead (us), one-region lease (cold) vs hot team",
            &["construct", "threads", "cold (us)", "hot (us)", "cold/hot"],
            &rows,
        )
    );
    let s = stats().snapshot();
    println!(
        "hot-team counters: hits={} misses={} resizes={}",
        s.hot_team_hits, s.hot_team_misses, s.hot_team_resizes
    );
    println!("{}", display_env(&icv::current()));

    // ---------------- nested-fork probe ----------------
    let nested_cells = run_nested_probe(outer, (reps / 8).max(25));
    let nested_lookup = |mode: &str, bind: &str| {
        nested_cells
            .iter()
            .find(|c| c.mode == mode && c.bind == bind)
            .map(|c| c.per_nest_us)
            .unwrap_or(f64::NAN)
    };
    {
        let mut rows = Vec::new();
        for &bind in &["unbound", "spread"] {
            let cold = nested_lookup("cold", bind);
            let hot = nested_lookup("hot", bind);
            rows.push(vec![
                bind.to_string(),
                format!("{cold:.2}"),
                format!("{hot:.2}"),
                format!("{:.2}x", cold / hot),
            ]);
        }
        println!(
            "{}",
            render_table(
                "syncbench nested probe — 2x2 nested parallel (max-active-levels=2), \
                 one-region leases (cold) vs hierarchical hot teams",
                &["bind", "cold (us)", "hot (us)", "cold/hot"],
                &rows,
            )
        );
        let s = stats().snapshot();
        println!(
            "nested hot-team counters: nested_hits={} nested_misses={} \
             affinity_binds={} affinity_bind_failures={}",
            s.hot_team_nested_hits,
            s.hot_team_nested_misses,
            s.affinity_binds,
            s.affinity_bind_failures
        );
    }

    // ---------------- server mode ----------------
    let server_cells = if args.has("no-server") || server_ms.is_empty() {
        Vec::new()
    } else {
        run_server_mode(&server_ms, server_threads, server_regions)
    };
    if !server_cells.is_empty() {
        let mut rows = Vec::new();
        for c in &server_cells {
            rows.push(vec![
                c.masters.to_string(),
                c.mode.to_string(),
                format!("{:.0}", c.regions_per_sec),
                format!("{:.2}", c.p99_fork_us),
            ]);
        }
        println!(
            "{}",
            render_table(
                &format!(
                    "syncbench server mode — {} masters x {} regions of parallel@{}",
                    server_ms
                        .iter()
                        .map(|m| m.to_string())
                        .collect::<Vec<_>>()
                        .join("/"),
                    server_regions,
                    server_threads,
                ),
                &["masters", "mode", "regions/s", "p99 fork (us)"],
                &rows,
            )
        );
    }

    // ---------------- JSON ----------------
    let p4_cold = lookup("parallel", 4, "cold");
    let p4_hot = lookup("parallel", 4, "hot");
    let ratio = p4_cold / p4_hot;
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"syncbench\",");
    let _ = writeln!(json, "  \"meta\": {},", romp_bench::meta_json());
    let _ = writeln!(json, "  \"hardware_threads\": {},", icv::hardware_threads());
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"outer\": {outer},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 == cells.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"construct\": \"{}\", \"threads\": {}, \"mode\": \"{}\", \"per_construct_us\": {}}}{comma}",
            c.construct,
            c.threads,
            c.mode,
            json_escape_f(c.per_construct_us)
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"nested\": {{");
    let _ = writeln!(json, "    \"geometry\": \"2x2\",");
    let _ = writeln!(json, "    \"results\": [");
    for (i, c) in nested_cells.iter().enumerate() {
        let comma = if i + 1 == nested_cells.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "      {{\"mode\": \"{}\", \"bind\": \"{}\", \"per_nest_us\": {}}}{comma}",
            c.mode,
            c.bind,
            json_escape_f(c.per_nest_us)
        );
    }
    let _ = writeln!(json, "    ],");
    let n_cold = nested_lookup("cold", "unbound");
    let n_hot = nested_lookup("hot", "unbound");
    let n_hot_spread = nested_lookup("hot", "spread");
    let _ = writeln!(json, "    \"summary\": {{");
    let _ = writeln!(
        json,
        "      \"nested_2x2_cold_us\": {},",
        json_escape_f(n_cold)
    );
    let _ = writeln!(
        json,
        "      \"nested_2x2_hot_us\": {},",
        json_escape_f(n_hot)
    );
    let _ = writeln!(
        json,
        "      \"nested_2x2_cold_over_hot\": {},",
        json_escape_f(n_cold / n_hot)
    );
    let _ = writeln!(
        json,
        "      \"nested_hot_3x_target_met\": {},",
        n_cold / n_hot >= 3.0
    );
    let _ = writeln!(
        json,
        "      \"nested_2x2_hot_spread_us\": {},",
        json_escape_f(n_hot_spread)
    );
    let _ = writeln!(
        json,
        "      \"spread_over_unbound_hot\": {}",
        json_escape_f(n_hot_spread / n_hot)
    );
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }},");
    if !server_cells.is_empty() {
        let _ = writeln!(json, "  \"server_mode\": {{");
        let _ = writeln!(json, "    \"threads_per_region\": {server_threads},");
        let _ = writeln!(json, "    \"regions_per_master\": {server_regions},");
        let _ = writeln!(json, "    \"results\": [");
        for (i, c) in server_cells.iter().enumerate() {
            let comma = if i + 1 == server_cells.len() { "" } else { "," };
            let _ = writeln!(
                json,
                "      {{\"masters\": {}, \"mode\": \"{}\", \"regions_per_sec\": {}, \
                 \"p99_fork_us\": {}}}{comma}",
                c.masters,
                c.mode,
                json_escape_f(c.regions_per_sec),
                json_escape_f(c.p99_fork_us)
            );
        }
        let _ = writeln!(json, "    ],");
        let m4 = server_cells
            .iter()
            .find(|c| c.masters == 4 && c.mode == "cold")
            .map(|c| c.regions_per_sec)
            .unwrap_or(f64::NAN);
        let _ = writeln!(json, "    \"summary\": {{");
        let _ = writeln!(
            json,
            "      \"m4_cold_regions_per_sec\": {}",
            json_escape_f(m4)
        );
        let _ = writeln!(json, "    }}");
        let _ = writeln!(json, "  }},");
    }
    let _ = writeln!(json, "  \"summary\": {{");
    let _ = writeln!(
        json,
        "    \"parallel_4t_cold_us\": {},",
        json_escape_f(p4_cold)
    );
    let _ = writeln!(
        json,
        "    \"parallel_4t_hot_us\": {},",
        json_escape_f(p4_hot)
    );
    let _ = writeln!(
        json,
        "    \"parallel_4t_cold_over_hot\": {},",
        json_escape_f(ratio)
    );
    let f4 = lookup("for", 4, "hot");
    let f4_armed = lookup("for_armed", 4, "hot");
    let clean = lookup("for1k_clean", 4, "hot");
    let cancelled = lookup("for1k_cancelled", 4, "hot");
    let _ = writeln!(json, "    \"hot_team_5x_target_met\": {},", ratio >= 5.0);
    let _ = writeln!(json, "    \"for_4t_hot_us\": {},", json_escape_f(f4));
    let _ = writeln!(
        json,
        "    \"for_armed_4t_hot_us\": {},",
        json_escape_f(f4_armed)
    );
    let _ = writeln!(
        json,
        "    \"for1k_clean_4t_hot_us\": {},",
        json_escape_f(clean)
    );
    let _ = writeln!(
        json,
        "    \"for1k_cancelled_4t_hot_us\": {},",
        json_escape_f(cancelled)
    );
    let _ = writeln!(
        json,
        "    \"cancelled_loop_speedup\": {}",
        json_escape_f(clean / cancelled)
    );
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    std::fs::write(out_path, &json).expect("write BENCH_syncbench.json");
    println!("wrote {out_path}");
}
