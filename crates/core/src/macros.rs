//! OpenMP-style directive macros.
//!
//! The clause syntax deliberately mirrors OpenMP pragma text, the way the
//! paper's comment directives mirror `#pragma omp` lines in C. The
//! correspondence:
//!
//! | OpenMP | romp |
//! |---|---|
//! | `#pragma omp parallel num_threads(4)` + block | `omp_parallel!(num_threads(4), \|ctx\| { … })` |
//! | `#pragma omp parallel for schedule(dynamic,4) reduction(+:s)` | `omp_parallel_for!(schedule(dynamic,4), reduction(+ : s = 0.0), for i in 0..n { … })` |
//! | `#pragma omp for schedule(guided) nowait` | `omp_for!(ctx, schedule(guided), nowait, for i in 0..n { … })` |
//! | `#pragma omp parallel for collapse(2)` + nest | `omp_parallel_for!(collapse(2), for (i, j) in (0..n, 0..m) { … })` |
//! | `#pragma omp for collapse(3)` + nest | `omp_for!(ctx, collapse(3), for (i, j, k) in (0..n, 0..m, 0..p) { … })` |
//! | `for (i = a; i < b; i += s)` loop header | `omp_for!(ctx, step(s), for i in a..b { … })` (`i: i64`; `s` may be negative) |
//! | `#pragma omp teams num_teams(4)` + block | `omp_teams!(num_teams(4), \|ctx\| { … })` |
//! | `#pragma omp single` | `omp_single!(ctx, { … })` |
//! | `#pragma omp master` | `omp_master!(ctx, { … })` |
//! | `#pragma omp critical [(name)]` | `omp_critical!([name,] { … })` |
//! | `#pragma omp barrier` | `omp_barrier!(ctx)` |
//! | `#pragma omp sections` | `omp_sections!(ctx, { … } { … })` |
//! | `#pragma omp task` / `taskwait` | `omp_task!(ctx, { … })` / `omp_taskwait!(ctx)` |
//! | `#pragma omp task depend(in: a) depend(out: b) final(f) if(c)` | `omp_task!(ctx, depend(in: a; out: b), final(f), if(c), { … })` |
//! | `#pragma omp taskloop grainsize(g) num_tasks(n) nogroup` | `omp_taskloop!(ctx, grainsize(g), num_tasks(n), nogroup, for i in (r) { … })` |
//! | `#pragma omp cancel for [if(e)]` | `if omp_cancel!(ctx, for[, if(e)]) { return; }` |
//! | `#pragma omp cancellation point parallel` | `if omp_cancellation_point!(ctx, parallel) { return; }` |
//!
//! ## Data environment
//!
//! * `shared(x, y)` — documentation only: Rust closures already capture
//!   by reference, which *is* `shared`.
//! * `private(x)` — declares a fresh, uninitialized per-thread `x`
//!   shadowing the outer one (assign before use, as in OpenMP).
//! * `firstprivate(x)` — per-thread `x` initialized by `Clone` from the
//!   outer value.
//! * `reduction(op : var …)` — see below.
//!
//! ## Reduction semantics
//!
//! `omp_parallel_for!` takes `reduction(op : var = init, …)` and
//! **returns** the combined values as a tuple (private copies start at
//! the operator identity; `init` is folded exactly once, matching the
//! spec's treatment of the original variable):
//!
//! ```
//! use romp_core::prelude::*;
//! let (sum,) = omp_parallel_for!(
//!     reduction(+ : sum = 0u64),
//!     for i in 0..1000 { sum += i as u64; }
//! );
//! assert_eq!(sum, 499_500);
//! ```
//!
//! `omp_for!` (inside a region) reduces an existing thread-local binding
//! in place, with one
//! [`reduce_value`](crate::runtime::ThreadCtx::reduce_value) call (one
//! team barrier) over the tuple of the clause's variables; **every
//! thread's incoming value is folded**, so initialize it to the operator
//! identity for standard OpenMP behaviour:
//!
//! ```
//! use romp_core::prelude::*;
//! omp_parallel!(num_threads(4), |ctx| {
//!     let mut sum = 0u64; // identity of `+` on every thread
//!     omp_for!(ctx, schedule(static), reduction(+ : sum),
//!         for i in 0..1000 { sum += i as u64; });
//!     assert_eq!(sum, 499_500); // combined value visible on all threads
//! });
//! ```
//!
//! ## Loop headers
//!
//! Plain headers take three forms, all over `usize`: `for i in lo..hi
//! { … }` where `lo`/`hi` are single tokens or parenthesized
//! expressions, `for i in (range_expr) { … }`, and `for i in
//! (range_expr).step_by(s) { … }`. Two clause forms extend them:
//!
//! * `step(s)` — the OpenMP strided loop: `for i in a..b` then iterates
//!   `a, a+s, …` short of `b`. Bounds and `s` are taken as `i64` (so
//!   negative bounds and downward strides work) and `i` is bound as
//!   `i64`.
//! * `collapse(2)` / `collapse(3)` — with a tuple header
//!   `for (i, j) in (ra, rb) { … }` the loops fuse into one
//!   [`IterSpace`](crate::space::IterSpace) so the schedule balances
//!   across the whole rectangle. The tuple header alone is what
//!   triggers the fusion; the clause documents it (and is validated to
//!   be 1, 2 or 3).
//!
//! Every form lowers through the [`crate::space`] machinery — the same
//! lowering the [`ParFor`](crate::builder::ParFor) builder uses.
//! `omp_parallel_for!` evaluates the header once, on the encountering
//! thread, before it forks (so `for i in (r)` may move a non-`Copy`
//! range `r`), and runs every clause combination through one region:
//! firstprivate clones, the loop `nowait` (the region end is its
//! barrier), and for a reduction one tuple per thread folded into a
//! [`RedVar`](crate::runtime::reduction::RedVar) that the join
//! publishes — the builder's `reduce`, with no barrier of its own.
//!
//! ## `schedule(auto)` and `schedule(runtime)`
//!
//! OpenMP leaves `schedule(auto)` to the implementation; romp runs it
//! as block `static`, as libomp does. `schedule(runtime)` takes its
//! kind from the `run-sched-var` ICV (`OMP_SCHEDULE`, or
//! `omp_set_schedule`).
//!
//! A chunk size on `schedule(auto)` or `schedule(runtime)` is rejected
//! at expansion time (OpenMP 5.2 §11.5.3: chunk is only valid for
//! `static`, `dynamic` and `guided`).

/// `parallel` construct. Clauses: `num_threads(e)`, `if(e)`,
/// `default(shared|none)`, `shared(..)`, `private(..)`,
/// `firstprivate(..)`, `proc_bind(kind)`. Body: `|ctx| { … }`.
///
/// ```
/// use romp_core::prelude::*;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let hits = AtomicUsize::new(0);
/// let base = 10usize;
/// omp_parallel!(num_threads(3), firstprivate(base), |ctx| {
///     // `base` is a per-thread clone here.
///     hits.fetch_add(base + ctx.thread_num(), Ordering::Relaxed);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 30 + 0 + 1 + 2);
/// ```
#[macro_export]
macro_rules! omp_parallel {
    ($($t:tt)*) => {
        $crate::__omp_parallel!(@ {$crate::runtime::ForkSpec::new()} [] [] ; $($t)*)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __omp_parallel {
    // --- clauses ---
    (@ {$spec:expr} [$($fp:ident)*] [$($pv:ident)*] ; num_threads($e:expr), $($rest:tt)*) => {
        $crate::__omp_parallel!(@ {$spec.num_threads($e)} [$($fp)*] [$($pv)*] ; $($rest)*)
    };
    (@ {$spec:expr} [$($fp:ident)*] [$($pv:ident)*] ; if($e:expr), $($rest:tt)*) => {
        $crate::__omp_parallel!(@ {$spec.if_clause($e)} [$($fp)*] [$($pv)*] ; $($rest)*)
    };
    (@ {$spec:expr} [$($fp:ident)*] [$($pv:ident)*] ; default(shared), $($rest:tt)*) => {
        $crate::__omp_parallel!(@ {$spec} [$($fp)*] [$($pv)*] ; $($rest)*)
    };
    (@ {$spec:expr} [$($fp:ident)*] [$($pv:ident)*] ; default(none), $($rest:tt)*) => {
        $crate::__omp_parallel!(@ {$spec} [$($fp)*] [$($pv)*] ; $($rest)*)
    };
    (@ {$spec:expr} [$($fp:ident)*] [$($pv:ident)*] ; shared($($s:ident),*), $($rest:tt)*) => {
        $crate::__omp_parallel!(@ {$spec} [$($fp)*] [$($pv)*] ; $($rest)*)
    };
    (@ {$spec:expr} [$($fp:ident)*] [$($pv:ident)*] ; proc_bind($k:ident), $($rest:tt)*) => {
        $crate::__omp_parallel!(@ {$spec.proc_bind($crate::__omp_proc_bind!($k))} [$($fp)*] [$($pv)*] ; $($rest)*)
    };
    (@ {$spec:expr} [$($fp:ident)*] [$($pv:ident)*] ; num_teams($e:expr), $($rest:tt)*) => {
        $crate::__omp_parallel!(@ {$spec.teams($e)} [$($fp)*] [$($pv)*] ; $($rest)*)
    };
    (@ {$spec:expr} [$($fp:ident)*] [$($pv:ident)*] ; firstprivate($($v:ident),*), $($rest:tt)*) => {
        $crate::__omp_parallel!(@ {$spec} [$($fp)* $($v)*] [$($pv)*] ; $($rest)*)
    };
    (@ {$spec:expr} [$($fp:ident)*] [$($pv:ident)*] ; private($($v:ident),*), $($rest:tt)*) => {
        $crate::__omp_parallel!(@ {$spec} [$($fp)*] [$($pv)* $($v)*] ; $($rest)*)
    };
    // --- terminal: the region body ---
    (@ {$spec:expr} [$($fp:ident)*] [$($pv:ident)*] ; |$ctx:ident| $body:block) => {{
        let __romp_spec = $spec;
        $crate::runtime::fork(__romp_spec, |__romp_ctx: &$crate::runtime::ThreadCtx<'_>| {
            $(
                #[allow(unused_mut)]
                let mut $fp = ::std::clone::Clone::clone(&$fp);
            )*
            $(
                #[allow(unused_mut, unused_assignments)]
                let mut $pv;
            )*
            let $ctx = __romp_ctx;
            $body
        });
    }};
}

/// `teams` construct: a league of initial teams, lowered onto an outer
/// parallel region that spreads across the place partition (so nested
/// `parallel` regions inside each team inherit a disjoint slice of the
/// machine — see `romp_runtime::affinity`). Clauses: `num_teams(e)`
/// plus everything [`omp_parallel!`] accepts; an explicit
/// `proc_bind(kind)` overrides the spread default. Body: `|ctx| { … }`;
/// league geometry is reported by `omp_get_num_teams` /
/// `omp_get_team_num`.
///
/// ```
/// use romp_core::prelude::*;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let seen = AtomicUsize::new(0);
/// omp_teams!(num_teams(2), |ctx| {
///     assert_eq!(romp_core::runtime::omp_get_num_teams(), 2);
///     seen.fetch_add(romp_core::runtime::omp_get_team_num() + 1, Ordering::Relaxed);
/// });
/// assert_eq!(seen.load(Ordering::Relaxed), 1 + 2);
/// ```
#[macro_export]
macro_rules! omp_teams {
    ($($t:tt)*) => {
        $crate::__omp_parallel!(@ {{
            let mut __romp_spec = $crate::runtime::ForkSpec::new();
            __romp_spec.league = true;
            __romp_spec
        }} [] [] ; $($t)*)
    };
}

/// Worksharing `for` inside an existing region. Clauses: `schedule(..)`,
/// `nowait`, `reduction(op : var, …)`, `step(e)`, `collapse(2|3)`.
///
/// ```
/// use romp_core::prelude::*;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let total = AtomicU64::new(0);
/// omp_parallel!(num_threads(4), |ctx| {
///     omp_for!(ctx, schedule(dynamic, 16), for i in 0..100 {
///         total.fetch_add(i as u64, Ordering::Relaxed);
///     });
/// });
/// assert_eq!(total.load(Ordering::Relaxed), 4950);
/// ```
#[macro_export]
macro_rules! omp_for {
    ($ctx:ident, $($t:tt)*) => {
        $crate::__omp_for!(@ $ctx {$crate::runtime::Schedule::Static { chunk: ::std::option::Option::None }} {false} {} [] ; $($t)*)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __omp_for {
    // --- clauses ---
    (@ $ctx:ident {$sched:expr} {$nw:expr} {$($step:tt)*} [$($red:tt)*] ; schedule($($s:tt)*), $($rest:tt)*) => {
        $crate::__omp_for!(@ $ctx {$crate::__omp_sched!($($s)*)} {$nw} {$($step)*} [$($red)*] ; $($rest)*)
    };
    (@ $ctx:ident {$sched:expr} {$nw:expr} {$($step:tt)*} [$($red:tt)*] ; nowait, $($rest:tt)*) => {
        $crate::__omp_for!(@ $ctx {$sched} {true} {$($step)*} [$($red)*] ; $($rest)*)
    };
    (@ $ctx:ident {$sched:expr} {$nw:expr} {} [$($red:tt)*] ; step($e:expr), $($rest:tt)*) => {
        $crate::__omp_for!(@ $ctx {$sched} {$nw} {$e} [$($red)*] ; $($rest)*)
    };
    (@ $ctx:ident {$sched:expr} {$nw:expr} {$($step:tt)*} [$($red:tt)*] ; collapse($n:tt), $($rest:tt)*) => {{
        $crate::__omp_collapse_ok!($n);
        $crate::__omp_for!(@ $ctx {$sched} {$nw} {$($step)*} [$($red)*] ; $($rest)*)
    }};
    (@ $ctx:ident {$sched:expr} {$nw:expr} {$($step:tt)*} [] ; reduction($op:tt : $($var:ident),+), $($rest:tt)*) => {
        $crate::__omp_for!(@ $ctx {$sched} {$nw} {$($step)*} [$op $($var)+] ; $($rest)*)
    };
    // --- terminal without reduction ---
    (@ $ctx:ident {$sched:expr} {$nw:expr} {$($step:tt)*} [] ; $($loop:tt)*) => {
        $crate::__omp_header!(__omp_ws!($ctx, $sched, $nw,), {$($step)*}, $($loop)*)
    };
    // --- terminal with reduction: nowait the loop, then one team-wide
    //     combine over the tuple of variables (its barrier is the
    //     construct's) ---
    (@ $ctx:ident {$sched:expr} {$nw:expr} {$($step:tt)*} [$op:tt $($var:ident)+] ; $($loop:tt)*) => {{
        $crate::__omp_header!(__omp_ws!($ctx, $sched, true,), {$($step)*}, $($loop)*);
        ($($var,)+) = $ctx.reduce_value($crate::__red_op!($op), ($($var,)+));
    }};
}

/// Map a `proc_bind(kind)` clause argument onto the runtime's
/// [`ProcBind`](crate::runtime::ProcBind) policy at expansion time
/// (unknown kinds are a compile error, like in a real front end).
#[doc(hidden)]
#[macro_export]
macro_rules! __omp_proc_bind {
    (master) => {
        $crate::runtime::ProcBind::Master
    };
    (primary) => {
        $crate::runtime::ProcBind::Master
    };
    (close) => {
        $crate::runtime::ProcBind::Close
    };
    (spread) => {
        $crate::runtime::ProcBind::Spread
    };
    ($other:ident) => {
        compile_error!("proc_bind(kind) supports master, primary, close or spread")
    };
}

/// Validate a `collapse(n)` clause argument at expansion time. The
/// tuple loop header is what actually selects the fused space; the
/// clause documents intent (and rejects unsupported depths).
#[doc(hidden)]
#[macro_export]
macro_rules! __omp_collapse_ok {
    (1) => {};
    (2) => {};
    (3) => {};
    ($other:tt) => {
        compile_error!("collapse(n) supports n = 1, 2 or 3");
    };
}

/// Parse one accepted loop header into the iteration space it covers
/// (a `$crate::space` value, the same ones the `ParFor` builder takes)
/// and the closure run per index, and pass both to
/// `$crate::$cb!($($args)* {space} {closure})`. The third argument is
/// the `step(..)` clause state: `{}` (absent) or `{expr}`.
#[doc(hidden)]
#[macro_export]
macro_rules! __omp_header {
    // --- collapse(2)/collapse(3) tuple headers ---
    ($cb:ident!($($a:tt)*), {}, for ($i:ident, $j:ident) in ($ra:expr, $rb:expr) $body:block) => {
        $crate::$cb!($($a)* {{
            let __romp_ra: ::std::ops::Range<usize> = $ra;
            let __romp_rb: ::std::ops::Range<usize> = $rb;
            $crate::space::collapse2(__romp_ra, __romp_rb)
        }} {|($i, $j)| $body})
    };
    ($cb:ident!($($a:tt)*), {}, for ($i:ident, $j:ident, $k:ident) in ($ra:expr, $rb:expr, $rc:expr) $body:block) => {
        $crate::$cb!($($a)* {{
            let __romp_ra: ::std::ops::Range<usize> = $ra;
            let __romp_rb: ::std::ops::Range<usize> = $rb;
            let __romp_rc: ::std::ops::Range<usize> = $rc;
            $crate::space::collapse3(__romp_ra, __romp_rb, __romp_rc)
        }} {|($i, $j, $k)| $body})
    };
    // --- `.step_by` header: usize semantics (historic form) ---
    ($cb:ident!($($a:tt)*), {}, for $i:ident in ($range:expr).step_by($s:expr) $body:block) => {
        $crate::$cb!($($a)* {{
            let __romp_r: ::std::ops::Range<usize> = $range;
            let __romp_step: usize = $s;
            $crate::space::StridedRange::new(
                __romp_r.start as i64,
                __romp_r.end as i64,
                __romp_step as i64,
            )
        }} {|__romp_i| {
            let $i = __romp_i as usize;
            $body
        }})
    };
    // --- plain headers: usize ranges, as the directive layer always
    //     accepted (the type pin keeps integer literals inferring) ---
    ($cb:ident!($($a:tt)*), {}, for $i:ident in ($range:expr) $body:block) => {
        $crate::$cb!($($a)* {{
            let __romp_r: ::std::ops::Range<usize> = $range;
            __romp_r
        }} {|$i| $body})
    };
    ($cb:ident!($($a:tt)*), {}, for $i:ident in $lo:tt .. $hi:tt $body:block) => {
        $crate::$cb!($($a)* {{
            let __romp_r: ::std::ops::Range<usize> = ($lo)..($hi);
            __romp_r
        }} {|$i| $body})
    };
    // --- step(e) clause: signed strided space, `$i: i64` ---
    ($cb:ident!($($a:tt)*), {$step:expr}, for $i:ident in ($range:expr) $body:block) => {
        $crate::$cb!($($a)* {{
            let __romp_r = $range;
            $crate::space::StridedRange::new(
                __romp_r.start as i64,
                __romp_r.end as i64,
                ($step) as i64,
            )
        }} {|$i| $body})
    };
    ($cb:ident!($($a:tt)*), {$step:expr}, for $i:ident in $lo:tt .. $hi:tt $body:block) => {
        $crate::$cb!($($a)* {
            $crate::space::StridedRange::new(($lo) as i64, ($hi) as i64, ($step) as i64)
        } {|$i| $body})
    };
}

/// `__omp_header!` callback of the in-region loop: run the space over
/// the current team.
#[doc(hidden)]
#[macro_export]
macro_rules! __omp_ws {
    ($ctx:ident, $sched:expr, $nw:expr, {$space:expr} {$f:expr}) => {
        $crate::space::ws_space($ctx, &$space, $sched, $nw, $f)
    };
}

/// Combined `parallel for`. Clauses: `num_threads(e)`, `if(e)`,
/// `proc_bind(kind)`, `schedule(..)`, `default(..)`, `shared(..)`,
/// `firstprivate(..)`, `reduction(op : var = init, …)`, `step(e)`,
/// `collapse(2|3)` (see the module docs for the strided/collapsed loop
/// headers).
///
/// With a `reduction` clause the macro **returns the combined values as
/// a tuple** (one element per variable, in clause order):
///
/// ```
/// use romp_core::prelude::*;
/// let v = [3.0f64, -1.0, 7.5, 2.0];
/// let (sum, hi) = {
///     let (sum,) = omp_parallel_for!(reduction(+ : sum = 0.0),
///         for i in 0..4 { sum += v[i]; });
///     let (hi,) = omp_parallel_for!(reduction(max : hi = f64::NEG_INFINITY),
///         for i in 0..4 { hi = hi.max(v[i]); });
///     (sum, hi)
/// };
/// assert_eq!(sum, 11.5);
/// assert_eq!(hi, 7.5);
/// ```
#[macro_export]
macro_rules! omp_parallel_for {
    ($($t:tt)*) => {
        $crate::__omp_parallel_for!(@ {$crate::runtime::ForkSpec::new()} {$crate::runtime::Schedule::Static { chunk: ::std::option::Option::None }} {} [] [] ; $($t)*)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __omp_parallel_for {
    // State: {spec} {sched} {step} [firstprivate] [reduction].
    // --- clauses ---
    (@ {$spec:expr} {$sched:expr} {$($step:tt)*} [$($fp:ident)*] [$($red:tt)*] ; num_threads($e:expr), $($rest:tt)*) => {
        $crate::__omp_parallel_for!(@ {$spec.num_threads($e)} {$sched} {$($step)*} [$($fp)*] [$($red)*] ; $($rest)*)
    };
    (@ {$spec:expr} {$sched:expr} {$($step:tt)*} [$($fp:ident)*] [$($red:tt)*] ; if($e:expr), $($rest:tt)*) => {
        $crate::__omp_parallel_for!(@ {$spec.if_clause($e)} {$sched} {$($step)*} [$($fp)*] [$($red)*] ; $($rest)*)
    };
    (@ {$spec:expr} {$sched:expr} {$($step:tt)*} [$($fp:ident)*] [$($red:tt)*] ; schedule($($s:tt)*), $($rest:tt)*) => {
        $crate::__omp_parallel_for!(@ {$spec} {$crate::__omp_sched!($($s)*)} {$($step)*} [$($fp)*] [$($red)*] ; $($rest)*)
    };
    (@ {$spec:expr} {$sched:expr} {} [$($fp:ident)*] [$($red:tt)*] ; step($e:expr), $($rest:tt)*) => {
        $crate::__omp_parallel_for!(@ {$spec} {$sched} {$e} [$($fp)*] [$($red)*] ; $($rest)*)
    };
    (@ {$spec:expr} {$sched:expr} {$($step:tt)*} [$($fp:ident)*] [$($red:tt)*] ; collapse($n:tt), $($rest:tt)*) => {{
        $crate::__omp_collapse_ok!($n);
        $crate::__omp_parallel_for!(@ {$spec} {$sched} {$($step)*} [$($fp)*] [$($red)*] ; $($rest)*)
    }};
    (@ {$spec:expr} {$sched:expr} {$($step:tt)*} [$($fp:ident)*] [$($red:tt)*] ; proc_bind($k:ident), $($rest:tt)*) => {
        $crate::__omp_parallel_for!(@ {$spec.proc_bind($crate::__omp_proc_bind!($k))} {$sched} {$($step)*} [$($fp)*] [$($red)*] ; $($rest)*)
    };
    (@ {$spec:expr} {$sched:expr} {$($step:tt)*} [$($fp:ident)*] [$($red:tt)*] ; default($k:ident), $($rest:tt)*) => {
        $crate::__omp_parallel_for!(@ {$spec} {$sched} {$($step)*} [$($fp)*] [$($red)*] ; $($rest)*)
    };
    (@ {$spec:expr} {$sched:expr} {$($step:tt)*} [$($fp:ident)*] [$($red:tt)*] ; shared($($s:ident),*), $($rest:tt)*) => {
        $crate::__omp_parallel_for!(@ {$spec} {$sched} {$($step)*} [$($fp)*] [$($red)*] ; $($rest)*)
    };
    (@ {$spec:expr} {$sched:expr} {$($step:tt)*} [$($fp:ident)*] [$($red:tt)*] ; firstprivate($($v:ident),*), $($rest:tt)*) => {
        $crate::__omp_parallel_for!(@ {$spec} {$sched} {$($step)*} [$($fp)* $($v)*] [$($red)*] ; $($rest)*)
    };
    (@ {$spec:expr} {$sched:expr} {$($step:tt)*} [$($fp:ident)*] [] ; reduction($op:tt : $($var:ident = $init:expr),+), $($rest:tt)*) => {
        $crate::__omp_parallel_for!(@ {$spec} {$sched} {$($step)*} [$($fp)*] [$op $(($var $init))+] ; $($rest)*)
    };
    // --- terminal: one region for every clause combination ---
    (@ {$spec:expr} {$sched:expr} {$($step:tt)*} [$($fp:ident)*] [$($red:tt)*] ; $($loop:tt)*) => {
        $crate::__omp_header!(__omp_pf_region!({$spec} {$sched} [$($fp)*] [$($red)*]), {$($step)*}, $($loop)*)
    };
}

/// `__omp_header!` callback of `omp_parallel_for!`. The space (and any
/// reduction's `init` values) are evaluated once, on the encountering
/// thread, before the fork; inside the region each thread clones its
/// firstprivates and runs the loop `nowait`, since the region end is the
/// loop's barrier. A reduction starts every thread's copies at the
/// operator identity, folds each thread's tuple once into a `RedVar`
/// seeded with the `init` tuple, and returns what the join publishes.
#[doc(hidden)]
#[macro_export]
macro_rules! __omp_pf_region {
    ({$spec:expr} {$sched:expr} [$($fp:ident)*] [] {$space:expr} {$f:expr}) => {{
        let __romp_space = $space;
        $crate::runtime::fork($spec, |__romp_ctx: &$crate::runtime::ThreadCtx<'_>| {
            $(
                #[allow(unused_mut)]
                let mut $fp = ::std::clone::Clone::clone(&$fp);
            )*
            $crate::space::ws_space(__romp_ctx, &__romp_space, $sched, true, $f);
        });
    }};
    ({$spec:expr} {$sched:expr} [$($fp:ident)*] [$op:tt $(($var:ident $init:expr))+] {$space:expr} {$f:expr}) => {{
        let __romp_space = $space;
        let __romp_red =
            $crate::runtime::reduction::RedVar::new(($($init,)+), $crate::__red_op!($op));
        $crate::runtime::fork($spec, |__romp_ctx: &$crate::runtime::ThreadCtx<'_>| {
            $(
                #[allow(unused_mut)]
                let mut $fp = ::std::clone::Clone::clone(&$fp);
            )*
            let ($(mut $var,)+) = __romp_red.identity();
            $crate::space::ws_space(__romp_ctx, &__romp_space, $sched, true, $f);
            __romp_red.contribute(($($var,)+));
        });
        __romp_red.into_inner()
    }};
}

/// Map `schedule(..)` clause tokens to a [`Schedule`](crate::Schedule)
/// value.
#[doc(hidden)]
#[macro_export]
macro_rules! __omp_sched {
    (static) => {
        $crate::runtime::Schedule::Static {
            chunk: ::std::option::Option::None,
        }
    };
    (static, $c:expr) => {
        $crate::runtime::Schedule::Static {
            chunk: ::std::option::Option::Some(($c) as u64),
        }
    };
    (dynamic) => {
        $crate::runtime::Schedule::Dynamic { chunk: 1 }
    };
    (dynamic, $c:expr) => {
        $crate::runtime::Schedule::Dynamic { chunk: ($c) as u64 }
    };
    (guided) => {
        $crate::runtime::Schedule::Guided { chunk: 1 }
    };
    (guided, $c:expr) => {
        $crate::runtime::Schedule::Guided { chunk: ($c) as u64 }
    };
    (runtime) => {
        $crate::runtime::Schedule::Runtime
    };
    (auto) => {
        $crate::runtime::Schedule::Auto
    };
    // OpenMP 5.2 §11.5.3: a chunk size may only be specified for the
    // static, dynamic and guided kinds. Diagnose at expansion time,
    // naming the clause, instead of a bare "no rules expected" error.
    (runtime, $c:expr) => {
        compile_error!(
            "schedule(runtime) does not take a chunk size; the chunk comes \
             from the run-sched-var ICV (OMP_SCHEDULE=\"kind,chunk\")"
        )
    };
    (auto, $c:expr) => {
        compile_error!(
            "schedule(auto) does not take a chunk size; the implementation \
             picks the schedule (romp runs it as block static)"
        )
    };
}

/// Map a reduction operator token to its [`ReduceOp`](crate::ReduceOp)
/// implementation.
#[doc(hidden)]
#[macro_export]
macro_rules! __red_op {
    (+) => {
        $crate::runtime::SumOp
    };
    (*) => {
        $crate::runtime::ProdOp
    };
    (min) => {
        $crate::runtime::MinOp
    };
    (max) => {
        $crate::runtime::MaxOp
    };
    (&) => {
        $crate::runtime::BitAndOp
    };
    (|) => {
        $crate::runtime::BitOrOp
    };
    (^) => {
        $crate::runtime::BitXorOp
    };
    (&&) => {
        $crate::runtime::LogAndOp
    };
    (||) => {
        $crate::runtime::LogOrOp
    };
}

/// `barrier` directive.
#[macro_export]
macro_rules! omp_barrier {
    ($ctx:ident) => {
        $ctx.barrier()
    };
}

/// `single` construct: one thread runs the block; implied barrier unless
/// `nowait`. Evaluates to `Option<R>` (`Some` on the executing thread).
#[macro_export]
macro_rules! omp_single {
    ($ctx:ident, nowait, $body:block) => {
        $ctx.single(true, || $body)
    };
    ($ctx:ident, $body:block) => {
        $ctx.single(false, || $body)
    };
}

/// `master` construct: thread 0 runs the block, no barrier. Evaluates to
/// `Option<R>`.
#[macro_export]
macro_rules! omp_master {
    ($ctx:ident, $body:block) => {
        $ctx.master(|| $body)
    };
}

/// `critical` construct, optionally named:
/// `omp_critical!({ … })` or `omp_critical!(tag, { … })`.
#[macro_export]
macro_rules! omp_critical {
    ($name:ident, $body:block) => {
        $crate::runtime::critical_named(stringify!($name), || $body)
    };
    ($body:block) => {
        $crate::runtime::critical(|| $body)
    };
}

/// `sections` construct: each block runs exactly once, distributed over
/// the team. `omp_sections!(ctx, { a } { b } { c })`; add `nowait,` after
/// the ctx to skip the end barrier.
#[macro_export]
macro_rules! omp_sections {
    ($ctx:ident, nowait, $($sec:block)+) => {{
        let __romp_n = $crate::__omp_count!($($sec)+);
        $ctx.sections(__romp_n, true, |__romp_i| {
            $crate::__omp_sections_dispatch!(__romp_i, $($sec)+)
        })
    }};
    ($ctx:ident, $($sec:block)+) => {{
        let __romp_n = $crate::__omp_count!($($sec)+);
        $ctx.sections(__romp_n, false, |__romp_i| {
            $crate::__omp_sections_dispatch!(__romp_i, $($sec)+)
        })
    }};
}

#[doc(hidden)]
#[macro_export]
macro_rules! __omp_count {
    () => { 0usize };
    ($head:block $($rest:block)*) => { 1usize + $crate::__omp_count!($($rest)*) };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __omp_sections_dispatch {
    ($i:expr,) => {
        unreachable!("section index out of range")
    };
    ($i:expr, $first:block $($rest:block)*) => {
        if $i == 0 {
            $first
        } else {
            $crate::__omp_sections_dispatch!($i - 1, $($rest)*)
        }
    };
}

/// `task` construct: defer the block for execution by any team thread.
/// Captures by move (OpenMP tasks default to `firstprivate` capture).
///
/// Clauses, in any order before the body:
///
/// * `if(cond)` — undeferred (run immediately on the encountering
///   thread) when `cond` is false;
/// * `final(cond)` — when `cond`, this task and everything it spawns
///   run undeferred (included tasks);
/// * `depend(in: a, b; out: c; inout: d)` — order against sibling
///   tasks naming the same storage: `out`/`inout` serialize against
///   every earlier dependence on the address, `in` only against the
///   last `out`/`inout`. Groups may be split across several `depend`
///   clauses; addresses are taken (`&expr`) when the task is created.
///
/// ```
/// use romp_core::prelude::*;
/// use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
///
/// let acc = AtomicU64::new(1);
/// let acc = &acc; // task bodies capture by move; move the reference
/// omp_parallel!(num_threads(4), |ctx| {
///     omp_single!(ctx, nowait, {
///         // A chain: each task must observe its predecessor's update.
///         omp_task!(ctx, depend(inout: acc), { acc.fetch_add(1, Relaxed); });
///         omp_task!(ctx, depend(inout: acc), {
///             let v = acc.load(Relaxed);
///             assert_eq!(v, 2);
///             acc.store(v * 10, Relaxed);
///         });
///         omp_task!(ctx, depend(in: acc), if(false), {
///             assert_eq!(acc.load(Relaxed), 20);
///         });
///     });
/// });
/// assert_eq!(acc.load(Relaxed), 20);
/// ```
#[macro_export]
macro_rules! omp_task {
    ($ctx:ident, $($t:tt)*) => {
        $crate::__omp_task!(@ $ctx {$crate::runtime::TaskSpec::new()} ; $($t)*)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __omp_task {
    // --- clauses, any order ---
    (@ $ctx:ident {$spec:expr} ; if($e:expr), $($rest:tt)*) => {
        $crate::__omp_task!(@ $ctx {$spec.if_clause($e)} ; $($rest)*)
    };
    (@ $ctx:ident {$spec:expr} ; final($e:expr), $($rest:tt)*) => {
        $crate::__omp_task!(@ $ctx {$spec.final_clause($e)} ; $($rest)*)
    };
    (@ $ctx:ident {$spec:expr} ; depend($($d:tt)*), $($rest:tt)*) => {
        $crate::__omp_task!(@ $ctx {$crate::__omp_depend!({$spec} $($d)*)} ; $($rest)*)
    };
    // --- terminal: the task body ---
    (@ $ctx:ident {$spec:expr} ; $body:block) => {
        $ctx.task_spec($spec, move || $body)
    };
}

/// Accumulate one `depend(...)` clause onto a `TaskSpec`: semicolon-
/// separated `in:`/`out:`/`inout:` groups of comma-separated lvalue
/// expressions.
#[doc(hidden)]
#[macro_export]
macro_rules! __omp_depend {
    ({$spec:expr}) => { $spec };
    ({$spec:expr} in : $($rest:tt)*) => {
        $crate::__omp_depend_list!(input {$spec} $($rest)*)
    };
    ({$spec:expr} out : $($rest:tt)*) => {
        $crate::__omp_depend_list!(output {$spec} $($rest)*)
    };
    ({$spec:expr} inout : $($rest:tt)*) => {
        $crate::__omp_depend_list!(inout {$spec} $($rest)*)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __omp_depend_list {
    ($kind:ident {$spec:expr} $v:expr) => {
        $spec.$kind(&$v)
    };
    ($kind:ident {$spec:expr} $v:expr, $($rest:tt)*) => {
        $crate::__omp_depend_list!($kind {$spec.$kind(&$v)} $($rest)*)
    };
    ($kind:ident {$spec:expr} $v:expr ; $($rest:tt)*) => {
        $crate::__omp_depend!({$spec.$kind(&$v)} $($rest)*)
    };
}

/// `taskwait` directive.
#[macro_export]
macro_rules! omp_taskwait {
    ($ctx:ident) => {
        $ctx.taskwait()
    };
}

/// `taskgroup` construct.
#[macro_export]
macro_rules! omp_taskgroup {
    ($ctx:ident, $body:block) => {
        $ctx.taskgroup(|| $body)
    };
}

/// `taskloop` construct: the encountering thread carves the range into
/// tasks executed by the whole team, with an implicit taskgroup.
/// `omp_taskloop!(ctx, [clauses,] for i in (range) { … })`; the body
/// captures by move (task semantics). Clauses, in any order:
/// `grainsize(g)` (iterations per task), `num_tasks(n)` (task count —
/// wins over `grainsize`), `nogroup` (skip the implicit taskgroup; pair
/// with `omp_taskwait!` or a barrier).
///
/// ```
/// use romp_core::prelude::*;
/// use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
///
/// let total = AtomicU64::new(0);
/// let total = &total; // task bodies capture by move; move the reference
/// omp_parallel!(num_threads(4), |ctx| {
///     omp_single!(ctx, nowait, {
///         omp_taskloop!(ctx, num_tasks(8), for i in (0..100) {
///             total.fetch_add(i as u64, Relaxed);
///         });
///         // The implicit taskgroup already waited:
///         assert_eq!(total.load(Relaxed), 4950);
///     });
/// });
/// ```
#[macro_export]
macro_rules! omp_taskloop {
    ($ctx:ident, $($t:tt)*) => {
        $crate::__omp_taskloop!(@ $ctx {$crate::runtime::TaskloopSpec::new()} ; $($t)*)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __omp_taskloop {
    (@ $ctx:ident {$spec:expr} ; grainsize($e:expr), $($rest:tt)*) => {
        $crate::__omp_taskloop!(@ $ctx {$spec.grainsize($e)} ; $($rest)*)
    };
    (@ $ctx:ident {$spec:expr} ; num_tasks($e:expr), $($rest:tt)*) => {
        $crate::__omp_taskloop!(@ $ctx {$spec.num_tasks($e)} ; $($rest)*)
    };
    (@ $ctx:ident {$spec:expr} ; nogroup, $($rest:tt)*) => {
        $crate::__omp_taskloop!(@ $ctx {$spec.nogroup()} ; $($rest)*)
    };
    (@ $ctx:ident {$spec:expr} ; for $i:ident in ($range:expr) $body:block) => {
        $ctx.taskloop_spec($range, $spec, move |$i| $body)
    };
}

/// `ordered` region inside an `ws_for_ordered` loop body.
#[macro_export]
macro_rules! omp_ordered {
    ($ord:ident, $body:block) => {
        $ord.section(|| $body)
    };
}

/// `cancel` construct: request cancellation of the innermost enclosing
/// region of the named kind (`parallel`, `for`, `sections` or
/// `taskgroup`). Evaluates to `bool`: `true` when cancellation is
/// active for the encountering thread — idiomatically `if
/// omp_cancel!(…) { return; }` to proceed to the end of the cancelled
/// region (a `return` from the region/iteration/task closure is romp's
/// "branch to the end of the region"). Always `false` (a no-op) when
/// the `OMP_CANCELLATION` ICV is off.
///
/// An optional trailing `if(e)` clause mirrors OpenMP: when `e` is
/// false the request is *not* activated, but the construct still acts
/// as a cancellation point for the named region.
///
/// Cancellation is cooperative and chunk-granular — see
/// [`ThreadCtx::cancel`](crate::runtime::ThreadCtx::cancel).
///
/// ```
/// use romp_core::prelude::*;
/// use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
///
/// let _arm = romp_core::runtime::icv::set_cancellation_override(Some(true));
/// let seen = AtomicUsize::new(0);
/// omp_parallel!(num_threads(2), |ctx| {
///     omp_for!(ctx, schedule(dynamic, 8), for i in 0..10_000 {
///         seen.fetch_add(1, Relaxed);
///         if i == 40 {
///             if omp_cancel!(ctx, for) { return; }
///         }
///     });
/// });
/// assert!(seen.load(Relaxed) < 10_000); // the loop stopped early
/// romp_core::runtime::icv::set_cancellation_override(None);
/// ```
#[macro_export]
macro_rules! omp_cancel {
    // `taskgroup` routes through the context-free entry points: the
    // canonical placement is *inside a task body*, whose closure must
    // be `Send` and therefore cannot capture `&ThreadCtx`. The `$ctx`
    // argument is accepted (uniform directive syntax) but unused.
    ($ctx:ident, taskgroup) => {
        $crate::runtime::cancel_taskgroup()
    };
    ($ctx:ident, taskgroup, if($e:expr)) => {
        if $e {
            $crate::runtime::cancel_taskgroup()
        } else {
            $crate::runtime::cancellation_point_taskgroup()
        }
    };
    ($ctx:ident, $kind:tt) => {
        $ctx.cancel($crate::__omp_cancel_kind!($kind))
    };
    ($ctx:ident, $kind:tt, if($e:expr)) => {
        if $e {
            $ctx.cancel($crate::__omp_cancel_kind!($kind))
        } else {
            $ctx.cancellation_point($crate::__omp_cancel_kind!($kind))
        }
    };
}

/// `cancellation point` construct: has cancellation of the innermost
/// enclosing region of the named kind been activated? Evaluates to
/// `bool` (always `false` while `OMP_CANCELLATION` is off); on `true`,
/// `return` out of the enclosing closure to reach the region end.
#[macro_export]
macro_rules! omp_cancellation_point {
    // Context-free for `taskgroup` (see `omp_cancel!`).
    ($ctx:ident, taskgroup) => {
        $crate::runtime::cancellation_point_taskgroup()
    };
    ($ctx:ident, $kind:tt) => {
        $ctx.cancellation_point($crate::__omp_cancel_kind!($kind))
    };
}

/// Map a cancel construct-kind token onto
/// [`CancelKind`](crate::runtime::CancelKind) at expansion time
/// (unknown kinds are a compile error, like in a real front end).
#[doc(hidden)]
#[macro_export]
macro_rules! __omp_cancel_kind {
    (parallel) => {
        $crate::runtime::CancelKind::Parallel
    };
    (for) => {
        $crate::runtime::CancelKind::For
    };
    (sections) => {
        $crate::runtime::CancelKind::Sections
    };
    (taskgroup) => {
        $crate::runtime::CancelKind::Taskgroup
    };
    ($other:tt) => {
        compile_error!("cancel takes parallel, for, sections or taskgroup")
    };
}
