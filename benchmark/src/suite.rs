//! The whole set in one command, and the two tools built on it:
//! `--repeat N` (run-to-run spread, from which the bounds in
//! `BENCHMARK.json` are derived) and `--compare` (the ratchet: a
//! verdict per workload × end-to-end metric against those bounds).
//!
//! Each workload runs in a fresh child process, so its peak memory and
//! its first-call costs are its own.

use crate::harness::{out_dir, Cfg};
use crate::json::{self, Json};
use crate::metrics::{self, WORKLOADS};
use crate::{machine, stats};
use romp_bench::render_table;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Run `workload` in a child process in the mode `trace`, with the
/// rest of `cfg`; returns its result line and whether it called itself
/// disturbed.
fn run_child(cfg: &Cfg, workload: &str, trace: bool) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--threads", &cfg.threads.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let disturbed = stdout.lines().any(|l| l.starts_with("# disturbed"));
    let line = stdout.lines().last().unwrap_or_default();
    match json::parse(line) {
        Ok(doc) => Ok((doc, disturbed)),
        Err(e) => Err(format!(
            "{workload} (trace {}) printed no result ({e}); exit {:?}; stderr:\n{}",
            u8::from(trace),
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// `{name: value}` of a result line's metrics.
fn metric_values(result: &Json) -> Json {
    let metrics = result.get("metrics").and_then(Json::as_obj);
    Json::obj(metrics.into_iter().flatten().map(|(name, m)| {
        let value = m.get("value").cloned().unwrap_or(Json::Null);
        (name.clone(), value)
    }))
}

/// Run every workload — untraced, then (if `traced`, and never in a
/// smoke run) traced — and collect the set's document. `cfg.workload`
/// and `cfg.trace` are not read.
pub fn run_set(cfg: &Cfg, traced: bool) -> Result<Json, String> {
    let mut workloads = BTreeMap::new();
    for w in WORKLOADS {
        eprintln!("[benchmark] {w}");
        let (e2e, disturbed) = run_child(cfg, w, false)?;
        let layers = if traced && !cfg.smoke {
            Some(run_child(cfg, w, true)?.0)
        } else {
            None
        };
        let tally = |key: &str| {
            let passes = [Some(&e2e), layers.as_ref()];
            Json::Num(
                passes
                    .iter()
                    .flatten()
                    .filter_map(|d| d.get(key)?.as_f64())
                    .sum(),
            )
        };
        let mut entry = BTreeMap::from([
            (
                "work_unit".to_string(),
                Json::Str(metrics::work_unit(w).into()),
            ),
            ("end_to_end".to_string(), metric_values(&e2e)),
            ("disturbed".to_string(), Json::Bool(disturbed)),
            ("attempted".to_string(), tally("attempted")),
            ("failed".to_string(), tally("failed")),
        ]);
        if let Some(layers) = &layers {
            entry.insert("per_layer".to_string(), metric_values(layers));
        }
        workloads.insert(w.to_string(), Json::Obj(entry));
    }
    Ok(Json::obj([
        ("benchmark", Json::Str("romp".into())),
        ("meta", machine::meta(cfg.threads, cfg.seed)),
        ("seconds", Json::Num(cfg.seconds)),
        ("workloads", Json::Obj(workloads)),
    ]))
}

/// Total failed operations in a set document.
pub fn failed_total(set: &Json) -> f64 {
    let workloads = set.get("workloads").and_then(Json::as_obj);
    workloads
        .into_iter()
        .flatten()
        .filter_map(|(_, w)| w.get("failed")?.as_f64())
        .sum()
}

/// Pretty JSON of `doc` with `"claim": null` as its final member: a
/// benchmark-defining change claims no gain, and says so last.
pub fn with_null_claim(doc: &Json) -> String {
    let body = doc.to_pretty();
    let open = body
        .trim_end()
        .strip_suffix('}')
        .expect("document is an object");
    format!("{},\n  \"claim\": null\n}}\n", open.trim_end())
}

/// Write `text` under `benchmark/out/`.
pub fn write_out(name: &str, text: &str) -> Result<PathBuf, String> {
    let dir = out_dir();
    let path = dir.join(name);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// One metric of one workload as a table row source: its number, or
/// the median of a `--repeat` cell.
fn cell_median(cell: &Json) -> Option<f64> {
    cell.as_f64().or_else(|| cell.get("median")?.as_f64())
}

fn cell_spread(cell: &Json) -> f64 {
    cell.get("rel_iqr").and_then(Json::as_f64).unwrap_or(0.0)
}

/// A value at table precision: four decimals, or four significant
/// digits in exponent form when that would hide it.
pub fn fmt(v: f64) -> String {
    if v == 0.0 || (1e-3..1e6).contains(&v.abs()) {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

/// Print a set: every metric by name, with its unit, per workload.
pub fn print_set(set: &Json) {
    let units: BTreeMap<String, &'static str> = metrics::end_to_end()
        .into_iter()
        .chain(metrics::per_layer())
        .map(|d| (d.name, d.unit))
        .collect();
    for w in WORKLOADS {
        let Some(entry) = set.path(&["workloads", w]) else {
            continue;
        };
        let mut rows = Vec::new();
        for group in ["end_to_end", "per_layer"] {
            for (name, v) in entry
                .get(group)
                .and_then(Json::as_obj)
                .into_iter()
                .flatten()
            {
                let Some(v) = cell_median(v) else { continue };
                // A layer the workload never calls reads 0: leave it out.
                if group == "per_layer" && v == 0.0 {
                    continue;
                }
                let unit = units.get(name).copied().unwrap_or("");
                let unit = if name == "throughput" {
                    format!("{}/s", metrics::work_unit(w))
                } else {
                    unit.to_string()
                };
                rows.push(vec![name.clone(), fmt(v), unit]);
            }
        }
        let title = format!(
            "{w}: {} of {} verified operations failed{}",
            entry
                .get("failed")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            entry
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            if entry.get("disturbed") == Some(&Json::Bool(true)) {
                " — DISTURBED (canary drift > 5%)"
            } else {
                ""
            }
        );
        println!(
            "{}",
            render_table(&title, &["metric", "value", "unit"], &rows)
        );
    }
}

/// The bounds `BENCHMARK.json` records, by end-to-end metric.
pub fn recorded_bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    Ok(list
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// `--repeat N`: N back-to-back sets of this build. Prints, per
/// workload × end-to-end metric, the median, quartiles and largest
/// relative deviation; derives each metric's bound as
/// `max(0.10, 2 × relative IQR)` over its workloads (capped at the
/// contract's 0.25); returns the document and whether every cell's
/// spread stayed inside the bound `BENCHMARK.json` records.
pub fn repeat(cfg: &Cfg, n: usize) -> Result<(Json, bool), String> {
    let mut sets = Vec::new();
    for i in 0..n {
        eprintln!("[benchmark] set {} of {n}", i + 1);
        sets.push(run_set(cfg, false)?);
    }
    let recorded = recorded_bounds()?;
    let mut derived: BTreeMap<String, f64> = BTreeMap::new();
    let mut workloads = BTreeMap::new();
    let mut rows = Vec::new();
    let mut all_inside = true;
    let failed: f64 = sets.iter().map(failed_total).sum();
    for w in WORKLOADS {
        let mut cells = BTreeMap::new();
        for d in metrics::end_to_end() {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|s| s.path(&["workloads", w, "end_to_end", &d.name])?.as_f64())
                .collect();
            let (q1, q3) = stats::quartiles(&values);
            let spread = stats::rel_iqr(&values);
            let bound = recorded.get(&d.name).copied().unwrap_or(f64::NAN);
            // `setup_s` is held to its bound between medians only.
            let inside = spread <= bound || d.name == "setup_s";
            all_inside &= inside;
            let slot = derived.entry(d.name.clone()).or_insert(0.10);
            *slot = slot.max(2.0 * spread).min(0.25);
            rows.push(vec![
                w.to_string(),
                d.name.clone(),
                fmt(stats::median(&values)),
                fmt(q1),
                fmt(q3),
                format!("{:.2}%", 100.0 * spread),
                format!("{:.2}%", 100.0 * stats::max_rel_dev(&values)),
                format!("{:.0}%", 100.0 * bound),
                if inside { "inside" } else { "OUTSIDE" }.to_string(),
            ]);
            cells.insert(
                d.name,
                Json::obj([
                    ("median", Json::Num(stats::median(&values))),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("rel_iqr", Json::Num(spread)),
                    ("max_rel_dev", Json::Num(stats::max_rel_dev(&values))),
                    ("n", Json::Num(values.len() as f64)),
                ]),
            );
        }
        workloads.insert(
            w.to_string(),
            Json::obj([
                ("work_unit", Json::Str(metrics::work_unit(w).into())),
                ("end_to_end", Json::Obj(cells)),
            ]),
        );
    }
    println!(
        "{}",
        render_table(
            &format!(
                "{n} back-to-back sets, seed {}: run-to-run spread",
                cfg.seed
            ),
            &[
                "workload",
                "metric",
                "median",
                "q1",
                "q3",
                "IQR/median",
                "max dev",
                "bound",
                "spread"
            ],
            &rows,
        )
    );
    let doc = Json::obj([
        ("benchmark", Json::Str("romp".into())),
        ("meta", machine::meta(cfg.threads, cfg.seed)),
        ("seconds", Json::Num(cfg.seconds)),
        ("sets", Json::Num(n as f64)),
        ("failed", Json::Num(failed)),
        (
            "derived_bounds",
            Json::obj(derived.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    Ok((doc, all_inside && failed == 0.0))
}

/// Verdict of one workload × metric cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the parent's own spread (or the bound).
    Better,
    /// No worse than the bound allows.
    WithinBound,
    /// Worse by more than the bound.
    Worse,
    /// Run-to-run spread is wider than the bound: no call either way.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `change` against `parent`. `worse_by` is the relative change
/// in the metric's bad direction.
pub fn verdict(
    parent: f64,
    change: f64,
    higher_is_better: bool,
    spread: f64,
    bound: f64,
) -> (f64, Verdict) {
    let delta = (change - parent) / parent;
    let worse_by = if higher_is_better { -delta } else { delta };
    let v = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread.max(if spread == 0.0 { bound } else { 0.0 }) {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (worse_by, v)
}

/// `--compare parent.json change.json`: one row per workload ×
/// end-to-end metric. Both files are sets or `--repeat` documents.
/// Returns whether nothing got worse.
pub fn compare(parent_path: &str, change_path: &str) -> Result<bool, String> {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (parent, change) = (load(parent_path)?, load(change_path)?);
    let bounds = recorded_bounds()?;
    let mut rows = Vec::new();
    let mut ok = true;
    for w in WORKLOADS {
        for d in metrics::end_to_end() {
            let cell = |doc: &Json| doc.path(&["workloads", w, "end_to_end", &d.name]).cloned();
            let (Some(pc), Some(cc)) = (cell(&parent), cell(&change)) else {
                continue;
            };
            let (Some(p), Some(c)) = (cell_median(&pc), cell_median(&cc)) else {
                continue;
            };
            let bound = bounds.get(&d.name).copied().unwrap_or(f64::NAN);
            let spread = cell_spread(&pc).max(cell_spread(&cc));
            let (worse_by, v) = verdict(p, c, d.higher_is_better, spread, bound);
            ok &= v != Verdict::Worse;
            rows.push(vec![
                w.to_string(),
                d.name.clone(),
                fmt(p),
                fmt(c),
                format!("{:+.2}% of {}", 100.0 * (c - p) / p, fmt(p)),
                format!("{:+.2}%", 100.0 * worse_by),
                format!("{:.0}%", 100.0 * bound),
                v.label().to_string(),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &format!("{parent_path} (parent) vs {change_path} (change)"),
            &[
                "workload",
                "metric",
                "parent",
                "change",
                "delta (base)",
                "worse by",
                "bound",
                "verdict"
            ],
            &rows,
        )
    );
    for w in WORKLOADS {
        let failed = |doc: &Json| doc.path(&["workloads", w, "failed"]).and_then(Json::as_f64);
        if let (Some(p), Some(c)) = (failed(&parent), failed(&change)) {
            println!("{w}: failed operations {p} -> {c}");
            ok &= c <= p;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower-is-better time, bound 10%.
        assert_eq!(verdict(1.0, 1.2, false, 0.02, 0.10).1, Verdict::Worse);
        assert_eq!(
            verdict(1.0, 1.05, false, 0.02, 0.10).1,
            Verdict::WithinBound
        );
        assert_eq!(verdict(1.0, 0.9, false, 0.02, 0.10).1, Verdict::Better);
        assert_eq!(
            verdict(1.0, 0.99, false, 0.02, 0.10).1,
            Verdict::WithinBound
        );
        assert_eq!(verdict(1.0, 1.5, false, 0.15, 0.10).1, Verdict::Unresolved);
        // Higher-is-better throughput: a drop is worse, and the delta's sign flips.
        let (worse_by, v) = verdict(100.0, 80.0, true, 0.0, 0.10);
        assert!((worse_by - 0.2).abs() < 1e-12);
        assert_eq!(v, Verdict::Worse);
        // Single runs carry no spread: only a move past the bound counts.
        assert_eq!(
            verdict(100.0, 105.0, true, 0.0, 0.10).1,
            Verdict::WithinBound
        );
        assert_eq!(verdict(100.0, 120.0, true, 0.0, 0.10).1, Verdict::Better);
    }

    #[test]
    fn claim_is_null_and_last() {
        let text = with_null_claim(&Json::obj([("z", Json::Num(1.0)), ("a", Json::Null)]));
        assert!(text.trim_end().ends_with("\"claim\": null\n}"));
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("claim"), Some(&Json::Null));
        assert_eq!(doc.get("z").and_then(Json::as_f64), Some(1.0));
    }
}
