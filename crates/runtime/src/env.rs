//! `OMP_*` environment-variable parsing.
//!
//! The recognised set matches what the paper's runtime (LLVM libomp)
//! honours for the constructs it implements, plus one romp extension:
//!
//! | Variable | ICV | Syntax |
//! |---|---|---|
//! | `OMP_NUM_THREADS` | `nthreads-var` | `n[,n2[,…]]` per nesting level |
//! | `OMP_SCHEDULE` | `run-sched-var` | `kind[,chunk]` |
//! | `OMP_DYNAMIC` | `dyn-var` | `true`/`false` |
//! | `OMP_MAX_ACTIVE_LEVELS` | `max-active-levels-var` | integer |
//! | `OMP_NESTED` (deprecated) | `max-active-levels-var` | `true` → ∞ |
//! | `OMP_THREAD_LIMIT` | `thread-limit-var` | integer |
//! | `OMP_WAIT_POLICY` | `wait-policy-var` | `active`/`passive` |
//! | `OMP_PROC_BIND` | `bind-var` | per-level list of `true/false/close/spread/master/primary` |
//! | `OMP_PLACES` | `place-partition-var` | `threads`/`cores`/`sockets` or `{a,b},{lo:count[:stride]},…` |
//! | `OMP_STACKSIZE` | `stacksize-var` | `n[B|K|M|G]` (default KiB) |
//! | `OMP_CANCELLATION` | `cancel-var` | `true`/`false` (default false) |
//! | `ROMP_HOT_TEAMS` | keep the team's lease between regions | `true`/`false` (default true) |
//!
//! Malformed values are ignored (with the spec-sanctioned fallback to the
//! default), never fatal: an HPC batch job must not die because of a typo
//! in a site-wide profile. Every parser here is a pure function over the
//! string so tests can cover it without touching the process environment.
//! For the values where silent fallback is most likely to surprise —
//! `OMP_THREAD_LIMIT=0` would quietly serialize every region if honored
//! (the spec requires a *positive* thread limit, so `0` is rejected),
//! and a malformed `OMP_PROC_BIND` or `OMP_PLACES` silently disables
//! affinity — the rejection is additionally reported: once on stderr at startup,
//! and in a `ROMP WARNINGS` block of the [`display_env`] banner.
//!
//! Defaults derived from hardware concurrency (`nthreads-var` with no
//! `OMP_NUM_THREADS`, the `thread-limit-var` default) read a
//! process-lifetime snapshot of `available_parallelism` taken on first
//! use ([`crate::icv::hardware_threads`]): a cgroup CPU-quota change
//! after startup (container resize) is not observed. Set
//! `OMP_NUM_THREADS`/`OMP_THREAD_LIMIT` explicitly where that matters.

use crate::icv::{Icvs, ProcBind, WaitPolicy};
use crate::sched::Schedule;

/// Parse `OMP_NUM_THREADS` syntax: a comma-separated positive-integer
/// list.
pub fn parse_num_threads(s: &str) -> Option<Vec<usize>> {
    let vals: Option<Vec<usize>> = s
        .split(',')
        .map(|p| p.trim().parse::<usize>().ok().filter(|&n| n > 0))
        .collect();
    vals.filter(|v| !v.is_empty())
}

/// Parse an OpenMP boolean (`true`/`false`, case-insensitive, also `1`/`0`).
pub fn parse_bool(s: &str) -> Option<bool> {
    match s.trim().to_ascii_lowercase().as_str() {
        "true" | "1" | "yes" | "on" => Some(true),
        "false" | "0" | "no" | "off" => Some(false),
        _ => None,
    }
}

/// Parse `OMP_STACKSIZE`: `size[B|K|M|G]`, unsuffixed means KiB.
pub fn parse_stacksize(s: &str) -> Option<usize> {
    let s = s.trim();
    if s.is_empty() {
        return None;
    }
    // Slicing `..s.len() - 1` below cannot split a UTF-8 character:
    // it only happens when the last *byte* matched B/K/M/G (ASCII, so
    // a one-byte character — continuation bytes are 0x80..=0xBF and
    // never match). The index itself is guarded by the is_empty check.
    let (num, mult) = match s.as_bytes()[s.len() - 1].to_ascii_uppercase() {
        b'B' => (&s[..s.len() - 1], 1usize),
        b'K' => (&s[..s.len() - 1], 1024),
        b'M' => (&s[..s.len() - 1], 1024 * 1024),
        b'G' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1024),
    };
    let n: usize = num.trim().parse().ok()?;
    n.checked_mul(mult).filter(|&b| b > 0)
}

/// Parse one `OMP_PROC_BIND` policy token.
pub fn parse_proc_bind(s: &str) -> Option<ProcBind> {
    match s.trim().to_ascii_lowercase().as_str() {
        "false" => Some(ProcBind::False),
        "true" => Some(ProcBind::True),
        "close" => Some(ProcBind::Close),
        "spread" => Some(ProcBind::Spread),
        "master" | "primary" => Some(ProcBind::Master),
        _ => None,
    }
}

/// Parse the full `OMP_PROC_BIND` syntax: a comma-separated per-level
/// policy list (`spread,close` = spread the outer team, pack inner
/// teams). All-or-nothing, like `OMP_NUM_THREADS`.
pub fn parse_proc_bind_list(s: &str) -> Option<Vec<ProcBind>> {
    let v: Option<Vec<ProcBind>> = s.split(',').map(parse_proc_bind).collect();
    v.filter(|v| !v.is_empty())
}

/// Parse `OMP_PLACES` into a place list (each place a non-empty set of
/// CPU ids). Accepted syntax:
///
/// * `threads` / `cores` — one place per hardware thread (romp does not
///   distinguish SMT siblings from cores; the spec allows this
///   degeneration on topology-blind runtimes);
/// * `sockets` — one place per physical package, read from
///   `/sys/devices/system/cpu/*/topology/physical_package_id`, falling
///   back to a single all-CPU place where sysfs is unavailable;
/// * an explicit list of brace groups: `{0,1},{2,3}`, `{0:4}` (start:
///   count), `{0:4:2}` (start:count:stride), and combinations.
///
/// Anything else is rejected (`None`) — the caller warns and disables
/// placement rather than guessing.
pub fn parse_places(s: &str) -> Option<Vec<Vec<usize>>> {
    match s.trim().to_ascii_lowercase().as_str() {
        "threads" | "cores" => Some(
            (0..crate::icv::hardware_threads())
                .map(|c| vec![c])
                .collect(),
        ),
        "sockets" => Some(socket_places()),
        _ => parse_place_list(s),
    }
}

/// Group the CPUs by physical package id (sysfs), one place per socket.
fn socket_places() -> Vec<Vec<usize>> {
    let hw = crate::icv::hardware_threads();
    let mut sockets: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for cpu in 0..hw {
        let id = std::fs::read_to_string(format!(
            "/sys/devices/system/cpu/cpu{cpu}/topology/physical_package_id"
        ))
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .unwrap_or(0);
        sockets.entry(id).or_default().push(cpu);
    }
    if sockets.is_empty() {
        vec![(0..hw).collect()]
    } else {
        sockets.into_values().collect()
    }
}

/// The explicit `{..},{..}` arm of [`parse_places`].
fn parse_place_list(s: &str) -> Option<Vec<Vec<usize>>> {
    let mut places = Vec::new();
    let mut rest = s.trim();
    if rest.is_empty() {
        return None;
    }
    loop {
        rest = rest.trim_start();
        rest = rest.strip_prefix('{')?;
        let end = rest.find('}')?;
        let mut cpus = Vec::new();
        for part in rest[..end].split(',') {
            let mut it = part.trim().split(':');
            let start: usize = it.next()?.trim().parse().ok()?;
            match it.next() {
                None => cpus.push(start),
                Some(count) => {
                    let count: usize = count.trim().parse().ok().filter(|&c| c > 0)?;
                    let stride: usize = match it.next() {
                        None => 1,
                        Some(st) => st.trim().parse().ok().filter(|&v| v > 0)?,
                    };
                    if it.next().is_some() {
                        return None;
                    }
                    cpus.extend((0..count).map(|k| start + k * stride));
                }
            }
        }
        if cpus.is_empty() {
            return None;
        }
        places.push(cpus);
        rest = rest[end + 1..].trim_start();
        if rest.is_empty() {
            return Some(places);
        }
        rest = rest.strip_prefix(',')?;
    }
}

/// Parse `OMP_WAIT_POLICY`.
pub fn parse_wait_policy(s: &str) -> Option<WaitPolicy> {
    match s.trim().to_ascii_lowercase().as_str() {
        "active" => Some(WaitPolicy::Active),
        "passive" => Some(WaitPolicy::Passive),
        _ => None,
    }
}

/// Parse `OMP_THREAD_LIMIT`: a **positive** integer, per the spec
/// (`thread-limit-var` bounds the whole contention group; `0` would
/// mean "no threads at all" and, if honored, silently serialize every
/// region through the `saturating_sub(1)` worker cap). `0`, negative
/// and garbage values are all rejected.
pub fn parse_thread_limit(s: &str) -> Option<usize> {
    s.trim().parse::<usize>().ok().filter(|&v| v > 0)
}

/// Build an ICV block from an abstract environment lookup. Pure — tests
/// drive it with a closure over a map. Discards warnings; use
/// [`icvs_from_lookup_with_warnings`] to observe them.
pub fn icvs_from_lookup(get: impl Fn(&str) -> Option<String>) -> Icvs {
    icvs_from_lookup_with_warnings(get).0
}

/// [`icvs_from_lookup`] plus the list of rejected-value warnings the
/// parse produced (empty when every set variable parsed cleanly).
pub fn icvs_from_lookup_with_warnings(get: impl Fn(&str) -> Option<String>) -> (Icvs, Vec<String>) {
    let mut warnings = Vec::new();
    let mut icvs = Icvs::default();
    if let Some(v) = get("OMP_NUM_THREADS")
        .as_deref()
        .and_then(parse_num_threads)
    {
        icvs.nthreads = v;
    }
    if let Some(v) = get("OMP_DYNAMIC").as_deref().and_then(parse_bool) {
        icvs.dynamic = v;
    }
    if let Some(v) = get("OMP_SCHEDULE").and_then(|s| Schedule::parse(&s).ok()) {
        // `OMP_SCHEDULE=runtime` would be circular; keep the default then.
        if v != Schedule::Runtime {
            icvs.run_sched = v;
        }
    }
    if let Some(v) = get("OMP_MAX_ACTIVE_LEVELS").and_then(|s| s.trim().parse::<usize>().ok()) {
        icvs.max_active_levels = v;
    } else if let Some(true) = get("OMP_NESTED").as_deref().and_then(parse_bool) {
        icvs.max_active_levels = usize::MAX;
    }
    if let Some(raw) = get("OMP_THREAD_LIMIT") {
        match parse_thread_limit(&raw) {
            Some(v) => icvs.thread_limit = v,
            None => warnings.push(format!(
                "OMP_THREAD_LIMIT='{}' ignored: the thread limit must be a \
                 positive integer (keeping {})",
                raw.trim(),
                icvs.thread_limit
            )),
        }
    }
    if let Some(v) = get("OMP_WAIT_POLICY")
        .as_deref()
        .and_then(parse_wait_policy)
    {
        icvs.wait_policy = v;
    }
    if let Some(raw) = get("OMP_PROC_BIND") {
        match parse_proc_bind_list(&raw) {
            Some(v) => icvs.proc_bind = v,
            None => warnings.push(format!(
                "OMP_PROC_BIND='{}' ignored: expected a comma-separated list of \
                 true|false|master|primary|close|spread, one per nesting level \
                 (keeping no binding)",
                raw.trim()
            )),
        }
    }
    if let Some(raw) = get("OMP_PLACES") {
        match parse_places(&raw) {
            Some(v) => icvs.places = Some(std::sync::Arc::new(v)),
            None => warnings.push(format!(
                "OMP_PLACES='{}' ignored: expected threads|cores|sockets or an \
                 explicit {{a,b}},{{lo:count[:stride]}} list (affinity disabled)",
                raw.trim()
            )),
        }
    }
    if let Some(v) = get("OMP_STACKSIZE").as_deref().and_then(parse_stacksize) {
        icvs.stacksize = Some(v);
    }
    if let Some(v) = get("ROMP_HOT_TEAMS").as_deref().and_then(parse_bool) {
        icvs.hot_teams = v;
    }
    if let Some(v) = get("OMP_CANCELLATION").as_deref().and_then(parse_bool) {
        icvs.cancellation = v;
    }
    (icvs, warnings)
}

/// Warnings produced when the process environment was first parsed into
/// the global ICV block (empty until [`icvs_from_env`] has run, and
/// empty forever if every set variable parsed cleanly).
pub fn env_warnings() -> &'static [String] {
    ENV_WARNINGS.get().map(Vec::as_slice).unwrap_or(&[])
}

static ENV_WARNINGS: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();

/// Build the ICV block from the real process environment. Rejected
/// values are reported once on stderr and retained for the
/// [`display_env`] banner ([`env_warnings`]).
pub fn icvs_from_env() -> Icvs {
    let (icvs, warnings) = icvs_from_lookup_with_warnings(|k| std::env::var(k).ok());
    if ENV_WARNINGS.set(warnings.clone()).is_ok() {
        for w in &warnings {
            eprintln!("ROMP WARNING: {w}");
        }
    }
    icvs
}

/// Render the effective ICVs in the style of libomp's
/// `OMP_DISPLAY_ENV=TRUE` banner.
pub fn display_env(icvs: &Icvs) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "ROMP DISPLAY ENVIRONMENT BEGIN");
    let _ = writeln!(out, "  _ROMP_VERSION = '{}'", env!("CARGO_PKG_VERSION"));
    let nthreads = if icvs.nthreads.is_empty() {
        format!("{}", crate::icv::hardware_threads())
    } else {
        icvs.nthreads
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let _ = writeln!(out, "  OMP_NUM_THREADS = '{nthreads}'");
    let _ = writeln!(out, "  OMP_SCHEDULE = '{}'", icvs.run_sched);
    let _ = writeln!(out, "  OMP_DYNAMIC = '{}'", icvs.dynamic);
    let _ = writeln!(
        out,
        "  OMP_MAX_ACTIVE_LEVELS = '{}'",
        icvs.max_active_levels
    );
    let _ = writeln!(out, "  OMP_THREAD_LIMIT = '{}'", icvs.thread_limit);
    let _ = writeln!(
        out,
        "  OMP_WAIT_POLICY = '{}'",
        match icvs.wait_policy {
            crate::icv::WaitPolicy::Active => "ACTIVE",
            crate::icv::WaitPolicy::Passive => "PASSIVE",
            crate::icv::WaitPolicy::Hybrid => "HYBRID (default)",
        }
    );
    let proc_bind = if icvs.proc_bind.is_empty() {
        "false".to_string()
    } else {
        icvs.proc_bind
            .iter()
            .map(|b| match b {
                ProcBind::False => "false",
                ProcBind::True => "true",
                ProcBind::Close => "close",
                ProcBind::Spread => "spread",
                ProcBind::Master => "master",
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    let _ = writeln!(out, "  OMP_PROC_BIND = '{proc_bind}'");
    let places = match icvs.places.as_deref() {
        None => "unset".to_string(),
        Some(list) => list
            .iter()
            .map(|p| {
                format!(
                    "{{{}}}",
                    p.iter()
                        .map(|c| c.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                )
            })
            .collect::<Vec<_>>()
            .join(","),
    };
    let _ = writeln!(out, "  OMP_PLACES = '{places}'");
    let _ = writeln!(
        out,
        "  OMP_STACKSIZE = '{}'",
        icvs.stacksize
            .map(|b| format!("{b}B"))
            .unwrap_or_else(|| "default".into())
    );
    let _ = writeln!(out, "  OMP_CANCELLATION = '{}'", icvs.cancellation);
    let _ = writeln!(out, "  ROMP_HOT_TEAMS = '{}'", icvs.hot_teams);
    let warnings = env_warnings();
    if !warnings.is_empty() {
        let _ = writeln!(out, "ROMP WARNINGS BEGIN");
        for w in warnings {
            let _ = writeln!(out, "  {w}");
        }
        let _ = writeln!(out, "ROMP WARNINGS END");
    }
    let _ = writeln!(out, "ROMP DISPLAY ENVIRONMENT END");
    // Task-scheduler counters ride along so one banner shows both the
    // configuration and what the tasking machinery actually did.
    out.push_str(&crate::stats::display_stats());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn env(pairs: &[(&str, &str)]) -> Icvs {
        let map: HashMap<String, String> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        icvs_from_lookup(|k| map.get(k).cloned())
    }

    #[test]
    fn num_threads_single_and_list() {
        assert_eq!(parse_num_threads("8"), Some(vec![8]));
        assert_eq!(parse_num_threads(" 4 , 2 "), Some(vec![4, 2]));
        assert_eq!(parse_num_threads("0"), None);
        assert_eq!(parse_num_threads("four"), None);
        assert_eq!(parse_num_threads(""), None);
        assert_eq!(parse_num_threads("4,,2"), None);
    }

    #[test]
    fn bools() {
        for t in ["true", "TRUE", "1", "yes", "on"] {
            assert_eq!(parse_bool(t), Some(true));
        }
        for f in ["false", "False", "0", "no", "off"] {
            assert_eq!(parse_bool(f), Some(false));
        }
        assert_eq!(parse_bool("maybe"), None);
    }

    #[test]
    fn stacksize_suffixes() {
        assert_eq!(parse_stacksize("512"), Some(512 * 1024)); // default KiB
        assert_eq!(parse_stacksize("512B"), Some(512));
        assert_eq!(parse_stacksize("4K"), Some(4096));
        assert_eq!(parse_stacksize("2M"), Some(2 * 1024 * 1024));
        assert_eq!(parse_stacksize("1g"), Some(1024 * 1024 * 1024));
        assert_eq!(parse_stacksize("0"), None);
        assert_eq!(parse_stacksize("lots"), None);
    }

    #[test]
    fn full_block_from_lookup() {
        let icvs = env(&[
            ("OMP_NUM_THREADS", "4,2"),
            ("OMP_DYNAMIC", "true"),
            ("OMP_SCHEDULE", "guided,7"),
            ("OMP_MAX_ACTIVE_LEVELS", "3"),
            ("OMP_THREAD_LIMIT", "32"),
            ("OMP_WAIT_POLICY", "passive"),
            ("OMP_PROC_BIND", "spread"),
            ("OMP_STACKSIZE", "8M"),
            ("ROMP_HOT_TEAMS", "false"),
            ("OMP_CANCELLATION", "true"),
        ]);
        assert_eq!(icvs.nthreads, vec![4, 2]);
        assert!(icvs.dynamic);
        assert_eq!(icvs.run_sched, Schedule::Guided { chunk: 7 });
        assert_eq!(icvs.max_active_levels, 3);
        assert_eq!(icvs.thread_limit, 32);
        assert_eq!(icvs.wait_policy, WaitPolicy::Passive);
        assert_eq!(icvs.proc_bind, vec![ProcBind::Spread]);
        assert_eq!(icvs.stacksize, Some(8 * 1024 * 1024));
        assert!(!icvs.hot_teams);
        assert!(icvs.cancellation);
    }

    #[test]
    fn malformed_values_fall_back_to_defaults() {
        let icvs = env(&[
            ("OMP_NUM_THREADS", "banana"),
            ("OMP_SCHEDULE", "fair,none"),
            ("OMP_THREAD_LIMIT", "-3"),
            ("OMP_WAIT_POLICY", "later"),
            ("OMP_CANCELLATION", "maybe"),
        ]);
        let def = Icvs::default();
        assert!(!def.cancellation, "cancel-var defaults to off");
        assert_eq!(icvs.cancellation, def.cancellation);
        assert_eq!(icvs.nthreads, def.nthreads);
        assert_eq!(icvs.run_sched, def.run_sched);
        assert_eq!(icvs.thread_limit, def.thread_limit);
        assert_eq!(icvs.wait_policy, def.wait_policy);
    }

    #[test]
    fn omp_nested_true_unlocks_nesting() {
        let icvs = env(&[("OMP_NESTED", "true")]);
        assert_eq!(icvs.max_active_levels, usize::MAX);
        // Explicit MAX_ACTIVE_LEVELS wins over OMP_NESTED.
        let icvs = env(&[("OMP_NESTED", "true"), ("OMP_MAX_ACTIVE_LEVELS", "2")]);
        assert_eq!(icvs.max_active_levels, 2);
    }

    #[test]
    fn display_env_renders_all_icvs() {
        let banner = display_env(&Icvs::default());
        for key in [
            "OMP_NUM_THREADS",
            "OMP_SCHEDULE",
            "OMP_DYNAMIC",
            "OMP_MAX_ACTIVE_LEVELS",
            "OMP_THREAD_LIMIT",
            "OMP_WAIT_POLICY",
            "OMP_PROC_BIND",
            "OMP_STACKSIZE",
            "OMP_CANCELLATION",
            "ROMP_HOT_TEAMS",
        ] {
            assert!(banner.contains(key), "missing {key} in:\n{banner}");
        }
        let custom = display_env(&env(&[("OMP_NUM_THREADS", "4,2")]));
        assert!(custom.contains("'4,2'"), "{custom}");
    }

    #[test]
    fn schedule_runtime_is_rejected_as_circular() {
        let icvs = env(&[("OMP_SCHEDULE", "runtime")]);
        assert_eq!(icvs.run_sched, Icvs::default().run_sched);
    }

    fn env_warn(pairs: &[(&str, &str)]) -> (Icvs, Vec<String>) {
        let map: HashMap<String, String> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        icvs_from_lookup_with_warnings(|k| map.get(k).cloned())
    }

    #[test]
    fn thread_limit_zero_is_rejected_with_warning() {
        // The spec requires a positive thread-limit-var; 0 must not be
        // honored (it would serialize every region via the worker cap's
        // saturating_sub), and the rejection must be loud.
        let (icvs, warnings) = env_warn(&[("OMP_THREAD_LIMIT", "0")]);
        assert_eq!(icvs.thread_limit, Icvs::default().thread_limit);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("OMP_THREAD_LIMIT"), "{warnings:?}");
        assert!(warnings[0].contains("positive"), "{warnings:?}");
    }

    #[test]
    fn thread_limit_negative_and_garbage_are_rejected() {
        assert_eq!(parse_thread_limit("0"), None);
        assert_eq!(parse_thread_limit("-3"), None);
        assert_eq!(parse_thread_limit("lots"), None);
        assert_eq!(parse_thread_limit(""), None);
        assert_eq!(parse_thread_limit(" 32 "), Some(32));
        for bad in ["-3", "banana", ""] {
            let (icvs, warnings) = env_warn(&[("OMP_THREAD_LIMIT", bad)]);
            assert_eq!(icvs.thread_limit, Icvs::default().thread_limit, "{bad:?}");
            assert_eq!(warnings.len(), 1, "{bad:?} -> {warnings:?}");
        }
        // A valid limit produces no warning.
        let (icvs, warnings) = env_warn(&[("OMP_THREAD_LIMIT", "16")]);
        assert_eq!(icvs.thread_limit, 16);
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn proc_bind_list_parses_per_level() {
        assert_eq!(
            parse_proc_bind_list("spread,close"),
            Some(vec![ProcBind::Spread, ProcBind::Close])
        );
        assert_eq!(
            parse_proc_bind_list(" PRIMARY "),
            Some(vec![ProcBind::Master])
        );
        assert_eq!(parse_proc_bind_list("spread,,close"), None);
        assert_eq!(parse_proc_bind_list("banana"), None);
        assert_eq!(parse_proc_bind_list(""), None);
        let icvs = env(&[("OMP_PROC_BIND", "spread,close")]);
        assert_eq!(icvs.proc_bind_for_level(0), ProcBind::Spread);
        assert_eq!(icvs.proc_bind_for_level(1), ProcBind::Close);
        assert_eq!(icvs.proc_bind_for_level(3), ProcBind::Close);
    }

    #[test]
    fn proc_bind_garbage_warns_and_keeps_no_binding() {
        let (icvs, warnings) = env_warn(&[("OMP_PROC_BIND", "banana")]);
        assert!(icvs.proc_bind.is_empty());
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("OMP_PROC_BIND"), "{warnings:?}");
        let (_, warnings) = env_warn(&[("OMP_PROC_BIND", "spread")]);
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn places_named_sets_cover_all_cpus() {
        let hw = crate::icv::hardware_threads();
        let cores = parse_places("cores").unwrap();
        assert_eq!(cores.len(), hw);
        assert!(cores.iter().enumerate().all(|(i, p)| p == &vec![i]));
        assert_eq!(parse_places("threads").unwrap().len(), hw);
        let sockets = parse_places("sockets").unwrap();
        assert!(!sockets.is_empty());
        let total: usize = sockets.iter().map(Vec::len).sum();
        assert_eq!(total, hw, "sockets must cover every cpu: {sockets:?}");
    }

    #[test]
    fn places_explicit_lists_and_intervals() {
        assert_eq!(
            parse_places("{0,1},{2,3}"),
            Some(vec![vec![0, 1], vec![2, 3]])
        );
        assert_eq!(parse_places("{0:4}"), Some(vec![vec![0, 1, 2, 3]]));
        assert_eq!(
            parse_places("{0:2:4},{1:2:4}"),
            Some(vec![vec![0, 4], vec![1, 5]])
        );
        assert_eq!(
            parse_places(" {0} , {8:2} "),
            Some(vec![vec![0], vec![8, 9]])
        );
    }

    #[test]
    fn places_garbage_warns_and_disables_affinity() {
        for bad in [
            "0,1",       // braces required for explicit lists
            "{}",        // empty place
            "{0:0}",     // zero-length interval
            "{a}",       // not a number
            "{0},",      // trailing comma
            "{0}{1}",    // missing separator
            "numa",      // unknown keyword
            "{0:2:1:9}", // too many fields
        ] {
            assert_eq!(parse_places(bad), None, "{bad:?}");
            let (icvs, warnings) = env_warn(&[("OMP_PLACES", bad)]);
            assert!(icvs.places.is_none(), "{bad:?}");
            assert_eq!(warnings.len(), 1, "{bad:?} -> {warnings:?}");
            assert!(warnings[0].contains("OMP_PLACES"), "{warnings:?}");
        }
        let (icvs, warnings) = env_warn(&[("OMP_PLACES", "{0,1},{2,3}")]);
        assert_eq!(icvs.places.as_deref(), Some(&vec![vec![0, 1], vec![2, 3]]));
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn display_env_renders_proc_bind_and_places() {
        let banner = display_env(&Icvs::default());
        assert!(banner.contains("OMP_PROC_BIND = 'false'"), "{banner}");
        assert!(banner.contains("OMP_PLACES = 'unset'"), "{banner}");
        let banner = display_env(&env(&[
            ("OMP_PROC_BIND", "spread,close"),
            ("OMP_PLACES", "{0,1},{2,3}"),
        ]));
        assert!(
            banner.contains("OMP_PROC_BIND = 'spread,close'"),
            "{banner}"
        );
        assert!(banner.contains("OMP_PLACES = '{0,1},{2,3}'"), "{banner}");
    }
}
