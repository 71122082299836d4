//! The benchmark's one command.
//!
//! ```text
//! romp-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! romp-benchmark [--seed N] [--seconds S] [--smoke]              the whole set, both passes
//! romp-benchmark --repeat N [--seed N] [--seconds S]             N sets: spread and bounds
//! romp-benchmark --compare parent.json change.json               the ratchet
//! ```
//!
//! A run prints every metric by name with its unit, then — as the last
//! line of stdout — the result object the contract in
//! `BENCHMARK.json` describes: a failed verification is reported there
//! (`correct`, `failed`) with exit code 0, as that contract wants. The
//! set, `--repeat` and `--compare` exit non-zero on any failure.

use romp_bench::Args;
use romp_benchmark::harness::{self, Cfg};
use romp_benchmark::suite;
use romp_benchmark::{machine, metrics};
use std::process::ExitCode;

const DEFAULT_SEED: u64 = 20_240_812;
const DEFAULT_SECONDS: f64 = 10.0;

fn parsed<T: std::str::FromStr>(args: &Args, name: &str, default: T) -> Result<T, String> {
    match args.value_of(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot read `{v}`")),
    }
}

fn run_one(cfg: &Cfg) -> Result<(), String> {
    let outcome = harness::run(cfg)?;
    println!(
        "{} seed {} threads {} ({} pass)",
        cfg.workload,
        cfg.seed,
        cfg.threads,
        if cfg.trace { "traced" } else { "untraced" }
    );
    for (d, v) in &outcome.metrics {
        let unit = if d.name == "throughput" {
            format!("{}/s", metrics::work_unit(&cfg.workload))
        } else {
            d.unit.to_string()
        };
        println!("  {:<40} {:>16} {unit}", d.name, suite::fmt(*v));
    }
    for note in &outcome.checks.notes {
        println!("# FAILED: {note}");
    }
    if outcome.disturbed {
        println!("# disturbed: the canary spin drifted more than 5% over this run");
    }
    println!("{}", outcome.result_json().to_line());
    Ok(())
}

fn real_main() -> Result<bool, String> {
    let args = Args::parse();
    let raw: Vec<String> = std::env::args().collect();
    if let Some(at) = raw.iter().position(|a| a == "--compare") {
        let (Some(parent), Some(change)) = (raw.get(at + 1), raw.get(at + 2)) else {
            return Err("--compare takes two files: parent.json change.json".into());
        };
        return suite::compare(parent, change);
    }

    let threads = parsed(&args, "threads", machine::default_threads())?;
    if threads == 0 || threads > machine::nproc() {
        return Err(format!(
            "--threads {threads}: this machine has {} hardware threads, and an \
             oversubscribed run measures the scheduler",
            machine::nproc()
        ));
    }
    let seed = parsed(&args, "seed", DEFAULT_SEED)?;
    let seconds: f64 = parsed(&args, "seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: want a length in (0, 600]"));
    }
    let smoke = args.has("smoke");

    let cfg = Cfg {
        workload: args.value_of("workload").unwrap_or_default().to_string(),
        seed,
        seconds,
        trace: parsed(&args, "trace", 0u8)? != 0,
        smoke,
        threads,
    };
    if !cfg.workload.is_empty() {
        if args.has("setup-only") {
            println!("{}", harness::run_setup_only(&cfg)?);
            return Ok(true);
        }
        return run_one(&cfg).map(|()| true);
    }

    if args.value_of("repeat").is_some() {
        let n: usize = parsed(&args, "repeat", 5)?;
        if n < 2 {
            return Err("--repeat needs at least 2 sets".into());
        }
        let (doc, inside) = suite::repeat(&cfg, n)?;
        let path = suite::write_out(&format!("repeat{n}.json"), &suite::with_null_claim(&doc))?;
        println!("wrote {}", path.display());
        return Ok(inside);
    }
    let set = suite::run_set(&cfg, true)?;
    suite::print_set(&set);
    let path = suite::write_out("summary.json", &suite::with_null_claim(&set))?;
    println!("wrote {}", path.display());
    Ok(suite::failed_total(&set) == 0.0)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("romp-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
