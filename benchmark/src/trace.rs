//! In-memory spans around the calls into each layer.
//!
//! The spans are recorded by the benchmark's own code (spans inside
//! the crates are a later change): one span per call into a layer's
//! public function, `{name, start, end, parent, op}` plus the runtime
//! counter delta over the call. They stay in memory and are written
//! out once, when the traced run ends. With tracing off `span` is a
//! single relaxed load and a direct call, so the untraced pass times
//! the program, not the recorder.

use crate::json::Json;
use romp::runtime::stats::{stats, Snapshot};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call` name, e.g. `sparse.spmv_csr`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// The operation (rep or job) this span belongs to.
    pub op: u64,
    /// Runtime counters that moved during the span. Process-global, so
    /// under concurrent clients a span also sees its neighbours' events.
    pub delta: Snapshot,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: OnceLock<Recorder> = OnceLock::new();

thread_local! {
    /// Open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

/// Turn recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Run `f` as one span of operation `op` (or just run it, untraced).
pub fn span<R>(name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let rec = recorder();
    let parent = OPEN.with(|o| o.borrow().last().copied());
    let before = stats().snapshot();
    let start_ns = rec.epoch.elapsed().as_nanos() as u64;
    let id = {
        let mut spans = rec.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            delta: Snapshot::default(),
        });
        spans.len() - 1
    };
    OPEN.with(|o| o.borrow_mut().push(id));
    let out = f();
    OPEN.with(|o| o.borrow_mut().pop());
    let end_ns = rec.epoch.elapsed().as_nanos() as u64;
    let delta = before.delta(&stats().snapshot());
    let mut spans = rec.spans.lock().expect("span list poisoned");
    spans[id].end_ns = end_ns;
    spans[id].delta = delta;
    out
}

/// Copy of everything recorded so far.
pub fn snapshot() -> Vec<Span> {
    recorder().spans.lock().expect("span list poisoned").clone()
}

/// Self time of every span, in seconds: its duration minus the part of
/// that interval its child spans cover (overlapping children are
/// merged, so concurrent children are not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push((a, b));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns - covered) as f64 * 1e-9
        })
        .collect()
}

/// Durations (seconds) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// The runtime counters the benchmark reports, by field name.
pub fn counter_fields(d: &Snapshot) -> [(&'static str, u64); 14] {
    [
        ("forks", d.forks),
        ("serialized_forks", d.serialized_forks),
        ("barriers", d.barriers),
        ("dispatched_chunks", d.dispatched_chunks),
        ("tasks_spawned", d.tasks_spawned),
        ("tasks_stolen", d.tasks_stolen),
        ("hot_team_hits", d.hot_team_hits),
        ("hot_team_misses", d.hot_team_misses),
        ("hot_team_resizes", d.hot_team_resizes),
        ("workers_spawned", d.workers_spawned),
        ("pool_acquires_local", d.pool_acquires_local),
        ("pool_acquires_stolen", d.pool_acquires_stolen),
        ("pool_shard_contention", d.pool_shard_contention),
        ("contended_locks", d.contended_locks),
    ]
}

/// The trace as JSON: every span with its self time and the counters
/// that moved during it.
pub fn to_json(spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    Json::Arr(
        spans
            .iter()
            .zip(selfs)
            .map(|(s, self_s)| {
                let counters = counter_fields(&s.delta)
                    .into_iter()
                    .filter(|&(_, v)| v > 0)
                    .map(|(k, v)| (k, Json::Num(v as f64)));
                Json::obj([
                    ("name", Json::Str(s.name.into())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num((self_s * 1e9).round())),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op_id", Json::Num(s.op as f64)),
                    ("counters", Json::obj(counters)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            delta: Snapshot::default(),
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        // rep [0,100) ⊃ solve [10,60) ⊃ sweep [20,30); rep also has two
        // overlapping children [50,80) and [70,90) (concurrent clients).
        let spans = [
            sp("rep", 0, 100, None),
            sp("solve", 10, 60, Some(0)),
            sp("sweep", 20, 30, Some(1)),
            sp("a", 50, 80, Some(0)),
            sp("b", 70, 90, Some(0)),
        ];
        let s = self_times(&spans);
        let ns: Vec<u64> = s.iter().map(|x| (x * 1e9).round() as u64).collect();
        // rep: 100 − |[10,90)| = 20; solve: 50 − 10 = 40; leaves keep all.
        assert_eq!(ns, [20, 40, 10, 30, 20]);
        assert_eq!(durations(&spans, "solve"), [50.0 * 1e-9]);
    }

    #[test]
    fn recorder_nests_by_thread_and_is_inert_when_off() {
        set_enabled(false);
        let before = snapshot().len();
        assert_eq!(span("off", 0, || 7), 7);
        assert_eq!(snapshot().len(), before);
        set_enabled(true);
        span("outer-test", 3, || span("inner-test", 3, || ()));
        set_enabled(false);
        let spans = snapshot();
        let outer = spans.iter().position(|s| s.name == "outer-test").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner-test").unwrap();
        assert_eq!(inner.parent, Some(outer));
        assert_eq!(spans[outer].parent, None);
        assert!(inner.start_ns >= spans[outer].start_ns && inner.end_ns <= spans[outer].end_ns);
        assert!(crate::json::parse(&to_json(&spans).to_line()).is_ok());
    }
}
