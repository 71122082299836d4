//! What the benchmark records about the machine it ran on, and the two
//! probes it takes of it: peak memory and the disturbance canary.

use crate::json::Json;
use std::time::Instant;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    romp::runtime::icv::hardware_threads()
}

/// Compute threads the workloads use: `min(nproc, 4)`, so the numbers
/// stay comparable across small boxes and no run oversubscribes.
pub fn default_threads() -> usize {
    nproc().min(4)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size in MiB of cpu0's unified/data cache at `level`, from sysfs.
fn cache_mb(level: u32) -> Option<f64> {
    (0..8).find_map(|idx| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        if read("level")?.trim().parse::<u32>().ok()? != level
            || read("type")?.trim() == "Instruction"
        {
            return None;
        }
        let size = read("size")?;
        let size = size.trim();
        let (digits, scale) = match size.as_bytes().last()? {
            b'K' => (&size[..size.len() - 1], 1.0 / 1024.0),
            b'M' => (&size[..size.len() - 1], 1.0),
            b'G' => (&size[..size.len() - 1], 1024.0),
            _ => (size, 1.0 / (1024.0 * 1024.0)),
        };
        Some(digits.parse::<f64>().ok()? * scale)
    })
}

/// Last-level cache size in MiB (0 when sysfs does not say).
pub fn llc_mb() -> f64 {
    cache_mb(3).or_else(|| cache_mb(2)).unwrap_or(0.0)
}

/// The timestamp-free `meta` block: regenerating a result on the same
/// commit and machine must diff clean.
pub fn meta(threads: usize, seed: u64) -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::Str(cpu_model())),
        ("l2_mb", cache_mb(2).map_or(Json::Null, Json::Num)),
        ("llc_mb", cache_mb(3).map_or(Json::Null, Json::Num)),
        ("threads", Json::Num(threads as f64)),
        ("seed", Json::Num(seed as f64)),
        ("git_rev", Json::Str(romp_bench::git_rev())),
    ])
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A fixed integer spin, in ms: the same instructions every time, so a
/// different reading before and after a workload means the machine was
/// disturbed, not the program.
pub fn canary_spin_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..20_000_000u64 {
        x = (x ^ i).wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(17);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}
