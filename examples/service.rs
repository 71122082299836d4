//! Server-shaped soak: a bounded job queue drained by many concurrent
//! masters, each job a full NPB kernel run on the romp runtime.
//!
//! This is the deployment shape in which masters share the pool's idle
//! list — not one long-lived data-parallel program, but a service whose
//! request handlers each open small parallel regions: M masters pull
//! kernel jobs (EP / CG / IS / Mandelbrot / sparse CARP-CG, class S,
//! mixed round-robin)
//! off a bounded queue and run them to completion, verification
//! included, while the pool circulates the same few workers between
//! them. The soak fails loudly if any kernel misverifies, if the pool
//! exceeds the thread limit, or if workers are stranded (not back on the
//! idle list) once the queue drains. With `ROMP_HOT_TEAMS=0` every fork
//! takes its workers from the list and returns them to it.
//!
//! ```text
//! cargo run --release --example service -- \
//!     [--masters 4] [--jobs 64] [--queue-depth 8] [--threads 2]
//! ```
//!
//! Raise `--jobs` (e.g. 10000) for a long-running soak; the defaults
//! finish in seconds so the example doubles as a CI smoke.

use romp::npb::{carp, cg, ep, is, mandelbrot, Class, KernelResult};
use romp::runtime::stats::{display_stats, stats};
use romp::runtime::{icv, pool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const KERNELS: [&str; 5] = ["EP", "CG", "IS", "Mandelbrot", "CARP"];

fn run_kernel(which: usize, threads: usize) -> KernelResult {
    match which % KERNELS.len() {
        0 => ep::romp::run(Class::S, threads),
        1 => cg::romp::run(Class::S, threads),
        2 => is::romp::run(Class::S, threads),
        3 => mandelbrot::romp::run(Class::S, threads),
        // The sparse job: its parallel structure (coloring, zone
        // partition, SELL layout, CSR-vs-SELL variant choice) is
        // computed at run time, so the many-master path exercises
        // runtime-computed parallelism, not just fixed loop nests.
        _ => carp::romp::run(Class::S, threads),
    }
}

fn arg(name: &str, default: usize) -> usize {
    let flag = format!("--{name}");
    let argv: Vec<String> = std::env::args().collect();
    argv.iter()
        .position(|a| a == &flag)
        .and_then(|i| argv.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let masters = arg("masters", 4).max(1);
    let jobs = arg("jobs", 64).max(1);
    let depth = arg("queue-depth", 8).max(1);
    let threads = arg("threads", 2).max(1);

    println!(
        "service soak: {masters} masters, {jobs} jobs (queue depth {depth}), \
         class S kernels @ {threads} threads"
    );

    // Bounded queue: the producer blocks once `depth` jobs are in
    // flight, like an admission-controlled request queue. `Receiver`
    // is single-consumer, so the masters share it behind a mutex —
    // the kernel work dwarfs that pop.
    let (tx, rx) = sync_channel::<usize>(depth);
    let rx = Arc::new(Mutex::new(rx));
    let failures = Arc::new(AtomicUsize::new(0));
    let per_kernel = Arc::new([
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    ]);

    let before = stats().snapshot();
    let t0 = Instant::now();
    let handles: Vec<_> = (0..masters)
        .map(|m| {
            let rx = rx.clone();
            let failures = failures.clone();
            let per_kernel = per_kernel.clone();
            std::thread::Builder::new()
                .name(format!("service-master-{m}"))
                .spawn(move || loop {
                    let job = {
                        let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
                        guard.recv()
                    };
                    let Ok(job) = job else { break };
                    let which = job % KERNELS.len();
                    let r = run_kernel(which, threads);
                    per_kernel[which].fetch_add(1, Ordering::Relaxed);
                    if !r.verified {
                        failures.fetch_add(1, Ordering::Relaxed);
                        eprintln!("job {job}: {r}");
                    }
                })
                .unwrap()
        })
        .collect();
    for job in 0..jobs {
        tx.send(job).expect("all masters died");
    }
    drop(tx);
    for h in handles {
        h.join().expect("service master panicked");
    }
    let wall = t0.elapsed().as_secs_f64();

    // Every worker the pool created must come back to an idle list once
    // the masters are gone — a stranded worker here is a leaked lease
    // or a mis-homed release.
    let deadline = Instant::now() + Duration::from_secs(30);
    while pool::idle_workers() != pool::pool_size() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stranded = pool::pool_size() - pool::idle_workers();
    let limit = icv::current().thread_limit;
    let d = before.delta(&stats().snapshot());

    println!();
    for (i, name) in KERNELS.iter().enumerate() {
        println!(
            "  {name:<12} {} jobs",
            per_kernel[i].load(Ordering::Relaxed)
        );
    }
    println!(
        "\n{jobs} jobs in {wall:.2}s = {:.1} jobs/s; pool {} workers \
         ({} idle), limit {limit}; forks: {} hot hits, {} pool acquires, \
         {} idle-list contentions",
        jobs as f64 / wall,
        pool::pool_size(),
        pool::idle_workers(),
        d.hot_team_hits,
        d.pool_acquires_local,
        d.pool_shard_contention,
    );
    if std::env::var_os("ROMP_STATS").is_some() {
        println!("\n{}", display_stats());
    }

    let failed = failures.load(Ordering::Relaxed);
    let over_limit = pool::pool_size() > limit.saturating_sub(1);
    if failed > 0 || stranded > 0 || over_limit {
        eprintln!(
            "SOAK FAILED: {failed} misverified jobs, {stranded} stranded \
             workers, over_limit={over_limit}"
        );
        std::process::exit(1);
    }
    println!("SOAK OK");
}
