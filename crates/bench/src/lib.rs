//! # romp-bench — the paper-reproduction binaries
//!
//! Binaries regenerating the paper's evaluation artefacts:
//!
//! * `table1` — Table 1: Reference vs Romp+OpenMP runtimes for CG, EP,
//!   IS and Mandelbrot, plus the relative deltas the text quotes
//!   (`--threads 1` gives the one-thread baseline);
//! * `figure1` — the pragma-interception pipeline, stage by stage;
//! * `syncbench` — EPCC-style construct overheads, including the nested
//!   2×2, many-master and skew probes.
//!
//! Everything else is measured by the repo benchmark (`benchmark/`),
//! which imports the helpers below: speedups as `npb.*.speedup`,
//! per-construct costs as `runtime.*_us` and `core.*_for_us`, sparse
//! kernel throughput as `sparse.*_gflops`.
//!
//! Reports are printed and also written as CSV under
//! `target/romp-reports/`.

#![warn(missing_docs)]

use romp_npb::KernelResult;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Parse `--key value` style options from `std::env::args`.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Capture the process arguments.
    pub fn parse() -> Self {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Value of `--name <v>`, if present.
    pub fn value_of(&self, name: &str) -> Option<&str> {
        let flag = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.raw.get(i + 1))
            .map(|s| s.as_str())
    }

    /// Is `--name` present (as a bare flag)?
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.raw.iter().any(|a| a == &flag)
    }
}

/// Default thread count: the machine's hardware concurrency.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The git revision describing this build: `ROMP_BENCH_GIT_REV` when
/// set (CI pins it to the exact commit under test), else `git
/// rev-parse --short HEAD`, else `"unknown"` (tarball builds).
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("ROMP_BENCH_GIT_REV") {
        let rev = rev.trim().to_string();
        if !rev.is_empty() {
            return rev;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The run-metadata object every committed `BENCH_*.json` carries, as
/// a JSON fragment (`{"git_rev": ..., "hardware_threads": ...}`).
/// Deliberately **timestamp-free**: regenerating a report on the same
/// commit and machine must produce a clean diff, so trajectory tooling
/// aligns runs by revision, not wall clock.
pub fn meta_json() -> String {
    format!(
        "{{\"git_rev\": \"{}\", \"hardware_threads\": {}}}",
        git_rev().replace('"', ""),
        romp_runtime::icv::hardware_threads()
    )
}

/// Render kernel results as an aligned table, one row per variant.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let rule: usize = widths.iter().sum::<usize>() + 3 * widths.len();
    let _ = writeln!(out, "{}", "-".repeat(rule));
    let mut line = String::new();
    for (h, w) in header.iter().zip(&widths) {
        let _ = write!(line, "{h:<w$}   ");
    }
    let _ = writeln!(out, "{}", line.trim_end());
    let _ = writeln!(out, "{}", "-".repeat(rule));
    for row in rows {
        let mut line = String::new();
        for (c, w) in row.iter().zip(&widths) {
            let _ = write!(line, "{c:<w$}   ");
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    let _ = writeln!(out, "{}", "-".repeat(rule));
    out
}

/// Write a CSV report under `target/romp-reports/<name>.csv`.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("target/romp-reports");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut body = header.join(",");
    body.push('\n');
    for row in rows {
        body.push_str(&row.join(","));
        body.push('\n');
    }
    std::fs::write(&path, body)?;
    Ok(path)
}

/// One row of Table 1: kernel results per variant.
pub fn result_row(r: &KernelResult) -> Vec<String> {
    vec![
        r.name.to_string(),
        r.class.to_string(),
        r.variant.to_string(),
        r.threads.to_string(),
        format!("{:.3}", r.time_s),
        format!("{:.2}", r.mops),
        if r.verified { "yes" } else { "NO" }.to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "demo",
            &["a", "bbbb"],
            &[
                vec!["x".into(), "y".into()],
                vec!["longer".into(), "z".into()],
            ],
        );
        assert!(t.contains("demo"));
        assert!(t.contains("longer"));
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines.len() >= 6);
    }

    #[test]
    fn csv_written() {
        let p = write_csv(
            "unit-test",
            &["k", "v"],
            &[vec!["a".into(), "1".into()], vec!["b".into(), "2".into()]],
        )
        .unwrap();
        let body = std::fs::read_to_string(p).unwrap();
        assert_eq!(body, "k,v\na,1\nb,2\n");
    }

    #[test]
    fn meta_is_valid_and_timestamp_free() {
        let m = meta_json();
        assert!(m.starts_with('{') && m.ends_with('}'), "{m}");
        assert!(m.contains("\"git_rev\": \""), "{m}");
        assert!(m.contains("\"hardware_threads\": "), "{m}");
        assert!(!m.to_lowercase().contains("time"), "{m}");
    }

    #[test]
    fn args_lookup() {
        let a = Args {
            raw: vec!["--class".into(), "A".into(), "--quick".into()],
        };
        assert_eq!(a.value_of("class"), Some("A"));
        assert!(a.has("quick"));
        assert!(!a.has("slow"));
        assert_eq!(a.value_of("missing"), None);
    }
}
