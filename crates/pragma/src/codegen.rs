//! Outlining and code generation: rewrite directive-annotated source
//! into calls to the `romp-core` directive layer.
//!
//! This mirrors what the paper's compiler pass does after parsing: the
//! annotated block is extracted ("outlined") into a closure and the
//! surrounding code is replaced with a runtime invocation — here
//! expressed through the `romp_core` macros, which expand to exactly
//! the `fork`/worksharing calls the Zig implementation inserts directly.

use crate::diag::{Diag, LineIndex};
use crate::directive::{Clause, Directive, DirectiveKind, RedOp, ScheduleKind};
use crate::source::{
    find_directives, match_brace, next_construct, skip_trivia, FoundDirective, NextConstruct,
    SENTINEL,
};

/// Translate a whole source file. On success returns the transformed
/// source; on failure, every diagnostic found.
pub fn translate(src: &str) -> Result<String, Vec<Diag>> {
    let mut cx = Cx {
        src,
        lines: LineIndex::new(src),
        diags: Vec::new(),
    };
    let out = transform_range(&mut cx, 0, src.len(), None, 0);
    if cx.diags.is_empty() {
        Ok(out)
    } else {
        Err(cx.diags)
    }
}

struct Cx<'a> {
    src: &'a str,
    lines: LineIndex<'a>,
    diags: Vec<Diag>,
}

impl Cx<'_> {
    fn diag(&mut self, offset: usize, message: impl Into<String>) {
        let (line, col) = self.lines.line_col(offset);
        self.diags.push(Diag::new(line, col, message));
    }
}

/// Transform `src[start..end]`, rewriting every directive. `ctx` is the
/// in-scope team context variable, if we are lexically inside a
/// `parallel` region.
fn transform_range(
    cx: &mut Cx<'_>,
    start: usize,
    end: usize,
    ctx: Option<&str>,
    depth: usize,
) -> String {
    let mut out = String::with_capacity(end - start);
    let mut cursor = start;
    let found: Vec<FoundDirective> = find_directives(&cx.src[start..end])
        .into_iter()
        .map(|mut d| {
            d.start += start;
            d.end += start;
            d
        })
        .collect();
    for fd in found {
        if fd.start < cursor {
            continue; // inside a construct we already transformed
        }
        out.push_str(&cx.src[cursor..fd.start]);
        let directive = match crate::directive::parse(&fd.text) {
            Ok(d) => d,
            Err(e) => {
                cx.diag(fd.start + SENTINEL.len() + e.offset, e.message);
                cursor = fd.end;
                continue;
            }
        };
        cursor = emit_directive(cx, &mut out, &directive, &fd, ctx, depth, end);
    }
    out.push_str(&cx.src[cursor.min(end)..end]);
    out
}

/// Emit the replacement for one directive; returns the new cursor.
fn emit_directive(
    cx: &mut Cx<'_>,
    out: &mut String,
    d: &Directive,
    fd: &FoundDirective,
    ctx: Option<&str>,
    depth: usize,
    limit: usize,
) -> usize {
    let needs_ctx = matches!(
        d.kind,
        DirectiveKind::For
            | DirectiveKind::Single
            | DirectiveKind::Master
            | DirectiveKind::Barrier
            | DirectiveKind::Sections
            | DirectiveKind::Task
            | DirectiveKind::Taskloop
            | DirectiveKind::Taskwait
            | DirectiveKind::Cancel(_)
            | DirectiveKind::CancellationPoint(_)
    );
    if needs_ctx && ctx.is_none() {
        cx.diag(
            fd.start,
            format!(
                "`{}` must be lexically nested inside a `parallel` region \
                 (the translator does not support orphaned constructs)",
                d.kind.name()
            ),
        );
        return fd.end;
    }
    match d.kind {
        DirectiveKind::Barrier => {
            out.push_str(&format!("romp_core::omp_barrier!({});", ctx.unwrap()));
            fd.end
        }
        DirectiveKind::Taskwait => {
            out.push_str(&format!("romp_core::omp_taskwait!({});", ctx.unwrap()));
            fd.end
        }
        // Stand-alone cancellation constructs. `return` is the
        // translator's "branch to the end of the cancelled region": the
        // outlined code runs inside closures (the region body, a loop
        // iteration, a task body), so returning from the innermost
        // closure is exactly the cooperative early exit the runtime's
        // chunk-granular drivers expect.
        DirectiveKind::Cancel(kind) => {
            let if_clause = d.clauses.iter().find_map(|c| match c {
                Clause::If(e) => Some(format!(", if({e})")),
                _ => None,
            });
            out.push_str(&format!(
                "if romp_core::omp_cancel!({}, {}{}) {{ return; }}",
                ctx.unwrap(),
                kind.keyword(),
                if_clause.unwrap_or_default()
            ));
            fd.end
        }
        DirectiveKind::CancellationPoint(kind) => {
            out.push_str(&format!(
                "if romp_core::omp_cancellation_point!({}, {}) {{ return; }}",
                ctx.unwrap(),
                kind.keyword()
            ));
            fd.end
        }
        DirectiveKind::Section => {
            cx.diag(fd.start, "`section` outside of a `sections` block");
            fd.end
        }
        _ => {
            let construct = match next_construct(cx.src, fd.end) {
                Ok(c) => c,
                Err(e) => {
                    cx.diag(e.offset.min(limit), e.message);
                    return fd.end;
                }
            };
            match d.kind {
                DirectiveKind::Parallel | DirectiveKind::Teams => {
                    emit_parallel(cx, out, d, fd, &construct, depth)
                }
                DirectiveKind::For => {
                    emit_for(cx, out, d, fd, &construct, ctx.unwrap(), depth, false)
                }
                DirectiveKind::ParallelFor => emit_parallel_for(cx, out, d, fd, &construct, depth),
                DirectiveKind::Single => {
                    emit_wrapped(cx, out, d, fd, &construct, ctx, depth, "omp_single")
                }
                DirectiveKind::Master => {
                    emit_wrapped(cx, out, d, fd, &construct, ctx, depth, "omp_master")
                }
                DirectiveKind::Task => emit_task(cx, out, d, fd, &construct, ctx.unwrap(), depth),
                DirectiveKind::Taskloop => {
                    emit_taskloop(cx, out, d, fd, &construct, ctx.unwrap(), depth)
                }
                DirectiveKind::Critical | DirectiveKind::Atomic => {
                    emit_critical(cx, out, d, fd, &construct, ctx, depth)
                }
                DirectiveKind::Sections => {
                    emit_sections(cx, out, d, fd, &construct, ctx.unwrap(), depth)
                }
                DirectiveKind::Barrier
                | DirectiveKind::Taskwait
                | DirectiveKind::Section
                | DirectiveKind::Cancel(_)
                | DirectiveKind::CancellationPoint(_) => {
                    unreachable!("handled above")
                }
            }
        }
    }
}

fn block_span(c: &NextConstruct) -> (usize, usize) {
    match c {
        NextConstruct::Block { open, close } => (*open, *close),
        NextConstruct::ForLoop { open, close, .. } => (*open, *close),
    }
}

fn expect_block(
    cx: &mut Cx<'_>,
    fd: &FoundDirective,
    c: &NextConstruct,
    what: &str,
) -> Option<(usize, usize)> {
    match c {
        NextConstruct::Block { open, close } => Some((*open, *close)),
        NextConstruct::ForLoop { for_kw, .. } => {
            cx.diag(*for_kw, format!("`{what}` expects a `{{ … }}` block"));
            let _ = fd;
            None
        }
    }
}

fn expect_loop<'c>(
    cx: &mut Cx<'_>,
    c: &'c NextConstruct,
    at: usize,
    what: &str,
) -> Option<(&'c str, &'c str, usize, usize)> {
    match c {
        NextConstruct::ForLoop {
            pat,
            iter,
            open,
            close,
            ..
        } => Some((pat, iter, *open, *close)),
        NextConstruct::Block { .. } => {
            cx.diag(at, format!("`{what}` expects a `for` loop"));
            None
        }
    }
}

/// Render the loop header for the macro layer: `(range)` or
/// `(range).step_by(s)`.
fn macro_iter(iter: &str) -> String {
    if let Some(idx) = iter.rfind(".step_by(") {
        let base = iter[..idx].trim();
        let tail = &iter[idx + ".step_by(".len()..];
        if let Some(close) = tail.rfind(')') {
            let step = &tail[..close];
            let base = base.trim_start_matches('(').trim_end_matches(')');
            return format!("({base}).step_by({step})");
        }
    }
    format!("({iter})")
}

/// Collect private/firstprivate declarations to inject at the top of an
/// outlined block (for constructs whose macro has no such clause).
fn privatization_prelude(d: &Directive) -> String {
    let mut s = String::new();
    for c in &d.clauses {
        match c {
            Clause::Private(vars) => {
                for v in vars {
                    s.push_str(&format!(
                        "#[allow(unused_mut, unused_assignments)] let mut {v};\n"
                    ));
                }
            }
            Clause::Firstprivate(vars) => {
                for v in vars {
                    s.push_str(&format!(
                        "#[allow(unused_mut)] let mut {v} = ::std::clone::Clone::clone(&{v});\n"
                    ));
                }
            }
            _ => {}
        }
    }
    s
}

fn schedule_clause_text(d: &Directive) -> Option<String> {
    d.clauses.iter().find_map(|c| match c {
        Clause::Schedule(kind, chunk) => {
            let k = match kind {
                ScheduleKind::Static => "static",
                ScheduleKind::Dynamic => "dynamic",
                ScheduleKind::Guided => "guided",
                ScheduleKind::Runtime => "runtime",
                ScheduleKind::Auto => "auto",
            };
            Some(match chunk {
                Some(c) => format!("schedule({k}, {c})"),
                None => format!("schedule({k})"),
            })
        }
        _ => None,
    })
}

fn step_clause_text(d: &Directive) -> Option<String> {
    d.clauses.iter().find_map(|c| match c {
        Clause::Step(e) => Some(format!("step({e})")),
        _ => None,
    })
}

fn collapse_depth(d: &Directive) -> Option<u32> {
    d.clauses.iter().find_map(|c| match c {
        Clause::Collapse(n) => Some(*n),
        _ => None,
    })
}

/// Render the worksharing loop header, validating `collapse` against
/// the loop pattern: `collapse(n)` with `n > 1` requires the tuple form
/// `for (i, j[, k]) in (ra, rb[, rc])`, which is forwarded verbatim
/// (the macro layer fuses the spaces). Returns the header text plus the
/// `collapse`/`step` clause text to prepend, or `None` after a
/// diagnostic.
fn loop_header(
    cx: &mut Cx<'_>,
    at: usize,
    d: &Directive,
    pat: &str,
    iter: &str,
) -> Option<(String, String)> {
    let tuple_arity = pat.starts_with('(').then(|| pat.matches(',').count() + 1);
    let mut clause_txt = String::new();
    let depth = collapse_depth(d);
    match (depth, tuple_arity) {
        (Some(n), arity) if n > 1 && arity != Some(n as usize) => {
            cx.diag(
                at,
                format!(
                    "collapse({n}) requires a tuple loop header with {n} variables, \
                     e.g. `for (i, j) in (0..n, 0..m)`"
                ),
            );
            return None;
        }
        (None | Some(1), Some(arity)) => {
            cx.diag(
                at,
                format!(
                    "a tuple loop header fuses {arity} loops: say so with a \
                     `collapse({arity})` clause"
                ),
            );
            return None;
        }
        _ => {}
    }
    if let Some(n) = depth {
        clause_txt.push_str(&format!("collapse({n}), "));
    }
    if let Some(s) = step_clause_text(d) {
        if tuple_arity.is_some() {
            cx.diag(at, "`step` cannot combine with a collapsed loop header");
            return None;
        }
        if iter.contains(".step_by(") {
            cx.diag(
                at,
                "`step` cannot combine with a `.step_by(..)` loop header \
                 (the header already fixes the stride)",
            );
            return None;
        }
        clause_txt.push_str(&format!("{s}, "));
    }
    let header = if tuple_arity.is_some() {
        let it = iter.trim();
        if !it.starts_with('(') || !it.contains(',') {
            cx.diag(
                at,
                "a collapsed loop iterates a parenthesized range tuple, \
                 e.g. `(0..n, 0..m)`",
            );
            return None;
        }
        format!("for {pat} in {it}")
    } else {
        format!("for {pat} in {}", macro_iter(iter))
    };
    Some((header, clause_txt))
}

fn reductions(d: &Directive) -> Vec<(RedOp, Vec<String>)> {
    d.clauses
        .iter()
        .filter_map(|c| match c {
            Clause::Reduction(op, vars) => Some((*op, vars.clone())),
            _ => None,
        })
        .collect()
}

fn emit_parallel(
    cx: &mut Cx<'_>,
    out: &mut String,
    d: &Directive,
    fd: &FoundDirective,
    c: &NextConstruct,
    depth: usize,
) -> usize {
    // `teams` shares this emitter: it is `parallel` with league
    // semantics, lowered onto `omp_teams!` (an outer spread region).
    let mac = if d.kind == DirectiveKind::Teams {
        "omp_teams"
    } else {
        "omp_parallel"
    };
    let Some((open, close)) = expect_block(cx, fd, c, d.kind.name()) else {
        return block_span(c).1 + 1;
    };
    if !reductions(d).is_empty() {
        cx.diag(
            fd.start,
            "`reduction` on a bare `parallel` is not supported by the translator; \
             put it on the worksharing loop (or use `parallel for`)",
        );
        return close + 1;
    }
    let ctx_name = format!("__omp_ctx_{depth}");
    let mut clause_txt = String::new();
    for cl in &d.clauses {
        match cl {
            Clause::NumThreads(e) => clause_txt.push_str(&format!("num_threads({e}), ")),
            Clause::If(e) => clause_txt.push_str(&format!("if({e}), ")),
            Clause::Default(shared) => clause_txt.push_str(if *shared {
                "default(shared), "
            } else {
                "default(none), "
            }),
            Clause::Shared(vars) => clause_txt.push_str(&format!("shared({}), ", vars.join(", "))),
            Clause::ProcBind(kind) => clause_txt.push_str(&format!("proc_bind({kind}), ")),
            Clause::NumTeams(e) => clause_txt.push_str(&format!("num_teams({e}), ")),
            // private/firstprivate handled by the macro's own clauses.
            Clause::Private(vars) => {
                clause_txt.push_str(&format!("private({}), ", vars.join(", ")))
            }
            Clause::Firstprivate(vars) => {
                clause_txt.push_str(&format!("firstprivate({}), ", vars.join(", ")))
            }
            _ => {}
        }
    }
    let body = transform_range(cx, open + 1, close, Some(&ctx_name), depth + 1);
    out.push_str(&format!(
        "romp_core::{mac}!({clause_txt}|{ctx_name}| {{{body}}});"
    ));
    close + 1
}

#[allow(clippy::too_many_arguments)]
fn emit_for(
    cx: &mut Cx<'_>,
    out: &mut String,
    d: &Directive,
    fd: &FoundDirective,
    c: &NextConstruct,
    ctx: &str,
    depth: usize,
    _combined: bool,
) -> usize {
    let Some((pat, iter, open, close)) = expect_loop(cx, c, fd.end, "for") else {
        return block_span(c).1 + 1;
    };
    let reds = reductions(d);
    if reds.len() > 1 {
        cx.diag(
            fd.start,
            "at most one reduction clause per worksharing loop is supported",
        );
        return close + 1;
    }
    let Some((header, mut clause_txt)) = loop_header(cx, fd.start, d, pat, iter) else {
        return close + 1;
    };
    if let Some(s) = schedule_clause_text(d) {
        clause_txt.push_str(&format!("{s}, "));
    }
    if d.clauses.iter().any(|c| matches!(c, Clause::Nowait)) {
        clause_txt.push_str("nowait, ");
    }
    if let Some((op, vars)) = reds.first() {
        clause_txt.push_str(&format!(
            "reduction({} : {}), ",
            op.token(),
            vars.join(", ")
        ));
    }
    let prelude = privatization_prelude(d);
    let body = transform_range(cx, open + 1, close, Some(ctx), depth + 1);
    out.push_str(&format!(
        "romp_core::omp_for!({ctx}, {clause_txt}{header} {{{prelude}{body}}});"
    ));
    close + 1
}

fn emit_parallel_for(
    cx: &mut Cx<'_>,
    out: &mut String,
    d: &Directive,
    fd: &FoundDirective,
    c: &NextConstruct,
    depth: usize,
) -> usize {
    let Some((pat, iter, open, close)) = expect_loop(cx, c, fd.end, "parallel for") else {
        return block_span(c).1 + 1;
    };
    let reds = reductions(d);
    if reds.len() > 1 {
        cx.diag(
            fd.start,
            "at most one reduction clause per combined `parallel for` is supported",
        );
        return close + 1;
    }
    let mut clause_txt = String::new();
    for cl in &d.clauses {
        match cl {
            Clause::NumThreads(e) => clause_txt.push_str(&format!("num_threads({e}), ")),
            Clause::If(e) => clause_txt.push_str(&format!("if({e}), ")),
            Clause::Default(shared) => clause_txt.push_str(if *shared {
                "default(shared), "
            } else {
                "default(none), "
            }),
            Clause::Shared(vars) => clause_txt.push_str(&format!("shared({}), ", vars.join(", "))),
            Clause::ProcBind(kind) => clause_txt.push_str(&format!("proc_bind({kind}), ")),
            Clause::Firstprivate(vars) => {
                clause_txt.push_str(&format!("firstprivate({}), ", vars.join(", ")))
            }
            _ => {}
        }
    }
    if let Some(s) = schedule_clause_text(d) {
        clause_txt.push_str(&format!("{s}, "));
    }
    let Some((header, extra_clauses)) = loop_header(cx, fd.start, d, pat, iter) else {
        return close + 1;
    };
    clause_txt.push_str(&extra_clauses);
    // `private` has no macro clause on parallel_for: inject declarations.
    let mut prelude = String::new();
    for cl in &d.clauses {
        if let Clause::Private(vars) = cl {
            for v in vars {
                prelude.push_str(&format!(
                    "#[allow(unused_mut, unused_assignments)] let mut {v};\n"
                ));
            }
        }
    }
    let body = transform_range(cx, open + 1, close, None, depth + 1);
    match reds.first() {
        None => {
            out.push_str(&format!(
                "romp_core::omp_parallel_for!({clause_txt}{header} {{{prelude}{body}}});"
            ));
        }
        Some((op, vars)) => {
            // The combined macro returns the reduced values; write them
            // back to the original variables.
            let red_clause = format!(
                "reduction({} : {}), ",
                op.token(),
                vars.iter()
                    .map(|v| format!("{v} = {v}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            let temps: Vec<String> = (0..vars.len()).map(|i| format!("__omp_red_{i}")).collect();
            let writeback: String = vars
                .iter()
                .zip(&temps)
                .map(|(v, t)| format!("{v} = {t}; "))
                .collect();
            out.push_str(&format!(
                "{{ let ({temps},) = romp_core::omp_parallel_for!({clause_txt}{red_clause}{header} \
                 {{{prelude}{body}}}); {writeback}}}",
                temps = temps.join(", ")
            ));
        }
    }
    close + 1
}

#[allow(clippy::too_many_arguments)]
fn emit_wrapped(
    cx: &mut Cx<'_>,
    out: &mut String,
    d: &Directive,
    fd: &FoundDirective,
    c: &NextConstruct,
    ctx: Option<&str>,
    depth: usize,
    mac: &str,
) -> usize {
    let Some((open, close)) = expect_block(cx, fd, c, d.kind.name()) else {
        return block_span(c).1 + 1;
    };
    let prelude = privatization_prelude(d);
    let body = transform_range(cx, open + 1, close, ctx, depth + 1);
    let nowait = d.clauses.iter().any(|c| matches!(c, Clause::Nowait));
    let ctx = ctx.unwrap();
    if nowait && mac == "omp_single" {
        out.push_str(&format!(
            "romp_core::{mac}!({ctx}, nowait, {{{prelude}{body}}});"
        ));
    } else {
        out.push_str(&format!("romp_core::{mac}!({ctx}, {{{prelude}{body}}});"));
    }
    close + 1
}

fn emit_task(
    cx: &mut Cx<'_>,
    out: &mut String,
    d: &Directive,
    fd: &FoundDirective,
    c: &NextConstruct,
    ctx: &str,
    depth: usize,
) -> usize {
    let Some((open, close)) = expect_block(cx, fd, c, "task") else {
        return block_span(c).1 + 1;
    };
    let body = transform_range(cx, open + 1, close, Some(ctx), depth + 1);
    // Clause text in source order; the macro muncher accepts any order.
    let mut clause_txt = String::new();
    for cl in &d.clauses {
        match cl {
            Clause::Depend(ty, items) => {
                clause_txt.push_str(&format!("depend({}: {}), ", ty.keyword(), items.join(", ")));
            }
            Clause::Final(e) => clause_txt.push_str(&format!("final({e}), ")),
            Clause::If(e) => clause_txt.push_str(&format!("if({e}), ")),
            _ => {}
        }
    }
    // firstprivate on a task: clone into a mangled temp *before* the
    // capture (so the outer variable is not consumed by the move) and
    // rebind the original name *inside* the body. The indirection
    // matters with `depend`: dependence addresses are taken at task
    // creation, outside the closure, and must name the ORIGINAL
    // variable's storage — a same-named shadowing clone would register
    // a fresh address per task and silently drop all ordering.
    let mut pre = String::new();
    let mut rebind = String::new();
    for cl in &d.clauses {
        if let Clause::Firstprivate(vars) = cl {
            for v in vars {
                pre.push_str(&format!(
                    "let __omp_fp_{v} = ::std::clone::Clone::clone(&{v}); "
                ));
                rebind.push_str(&format!(
                    "#[allow(unused_mut)] let mut {v} = __omp_fp_{v}; "
                ));
            }
        }
    }
    let inner = format!("romp_core::omp_task!({ctx}, {clause_txt}{{{rebind}{body}}});");
    if pre.is_empty() {
        out.push_str(&inner);
    } else {
        out.push_str(&format!("{{ {pre}{inner} }}"));
    }
    close + 1
}

fn emit_taskloop(
    cx: &mut Cx<'_>,
    out: &mut String,
    d: &Directive,
    fd: &FoundDirective,
    c: &NextConstruct,
    ctx: &str,
    depth: usize,
) -> usize {
    let Some((pat, iter, open, close)) = expect_loop(cx, c, fd.end, "taskloop") else {
        return block_span(c).1 + 1;
    };
    if pat.starts_with('(') {
        cx.diag(fd.start, "`taskloop` expects a single loop variable");
        return close + 1;
    }
    if iter.contains(".step_by(") {
        cx.diag(
            fd.start,
            "`taskloop` does not support `.step_by(..)` headers",
        );
        return close + 1;
    }
    let mut clause_txt = String::new();
    for cl in &d.clauses {
        match cl {
            Clause::Grainsize(e) => clause_txt.push_str(&format!("grainsize({e}), ")),
            Clause::NumTasks(e) => clause_txt.push_str(&format!("num_tasks({e}), ")),
            Clause::Nogroup => clause_txt.push_str("nogroup, "),
            _ => {}
        }
    }
    let body = transform_range(cx, open + 1, close, Some(ctx), depth + 1);
    out.push_str(&format!(
        "romp_core::omp_taskloop!({ctx}, {clause_txt}for {pat} in ({iter}) {{{body}}});"
    ));
    close + 1
}

fn emit_critical(
    cx: &mut Cx<'_>,
    out: &mut String,
    d: &Directive,
    fd: &FoundDirective,
    c: &NextConstruct,
    ctx: Option<&str>,
    depth: usize,
) -> usize {
    let Some((open, close)) = expect_block(cx, fd, c, d.kind.name()) else {
        return block_span(c).1 + 1;
    };
    let body = transform_range(cx, open + 1, close, ctx, depth + 1);
    let name = d.clauses.iter().find_map(|cl| match cl {
        Clause::CriticalName(n) => Some(n.clone()),
        _ => None,
    });
    match name {
        Some(n) => out.push_str(&format!("romp_core::omp_critical!({n}, {{{body}}});")),
        None => out.push_str(&format!("romp_core::omp_critical!({{{body}}});")),
    }
    close + 1
}

fn emit_sections(
    cx: &mut Cx<'_>,
    out: &mut String,
    d: &Directive,
    fd: &FoundDirective,
    c: &NextConstruct,
    ctx: &str,
    depth: usize,
) -> usize {
    let Some((open, close)) = expect_block(cx, fd, c, "sections") else {
        return block_span(c).1 + 1;
    };
    // Split the block content at top-level `//#omp section` markers.
    let content_start = open + 1;
    let mut boundaries = vec![];
    for found in find_directives(&cx.src[content_start..close]) {
        let abs = found.start + content_start;
        // Only split at markers that are at the top brace level of this
        // block: check by brace-matching from content_start.
        if found.text.trim() == "section"
            && at_top_level(&cx.src[content_start..close], found.start)
        {
            boundaries.push((abs, found.end + content_start));
        }
    }
    let mut segments: Vec<(usize, usize)> = Vec::new();
    let mut seg_start = content_start;
    for (b_start, b_end) in &boundaries {
        segments.push((seg_start, *b_start));
        seg_start = *b_end;
    }
    segments.push((seg_start, close));
    // Drop an empty leading segment (explicit `section` before the first
    // block is optional in OpenMP).
    let segments: Vec<(usize, usize)> = segments
        .into_iter()
        .filter(|&(s, e)| !cx.src[s..e].trim().is_empty())
        .collect();
    if segments.is_empty() {
        cx.diag(fd.start, "`sections` block contains no sections");
        return close + 1;
    }
    let nowait = d.clauses.iter().any(|cl| matches!(cl, Clause::Nowait));
    let mut blocks = String::new();
    for (s, e) in segments {
        let body = transform_range(cx, s, e, Some(ctx), depth + 1);
        blocks.push_str(&format!("{{{body}}} "));
    }
    if nowait {
        out.push_str(&format!(
            "romp_core::omp_sections!({ctx}, nowait, {blocks});"
        ));
    } else {
        out.push_str(&format!("romp_core::omp_sections!({ctx}, {blocks});"));
    }
    close + 1
}

/// Is `offset` (relative to `fragment`) at brace depth 0 of the
/// fragment?
fn at_top_level(fragment: &str, offset: usize) -> bool {
    // Count unbalanced braces before offset, string/comment aware, by
    // matching any opens we encounter.
    let mut i = skip_trivia(fragment, 0);
    while i < offset.min(fragment.len()) {
        if fragment[i..].starts_with('{') {
            match match_brace(fragment, i) {
                Ok(close) if close < offset => i = close + 1,
                _ => return false, // offset is inside this brace pair
            }
        } else {
            i += 1;
        }
        i = skip_trivia(fragment, i);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(src: &str) -> String {
        translate(src).unwrap_or_else(|e| panic!("diags: {e:?}"))
    }

    #[test]
    fn parallel_block_outlined() {
        let out = t("//#omp parallel num_threads(4)\n{ work(); }\nafter();");
        assert!(
            out.contains("romp_core::omp_parallel!(num_threads(4), |__omp_ctx_0| { work(); });"),
            "{out}"
        );
        assert!(out.contains("after();"));
    }

    #[test]
    fn teams_directive_lowers_to_omp_teams() {
        let out = t("//#omp teams num_teams(4)
{ work(); }");
        assert!(
            out.contains("romp_core::omp_teams!(num_teams(4), "),
            "teams must lower onto the omp_teams! macro: {out}"
        );
        let out = t("//#omp teams num_teams(2) proc_bind(close)
{ work(); }");
        assert!(
            out.contains("num_teams(2), ") && out.contains("proc_bind(close), "),
            "teams forwards num_teams and an explicit proc_bind: {out}"
        );
    }

    #[test]
    fn parallel_proc_bind_clause_forwarded() {
        let out = t("//#omp parallel num_threads(2) proc_bind(spread)
{ work(); }");
        assert!(
            out.contains("proc_bind(spread), "),
            "proc_bind must reach the macro clause list: {out}"
        );
        let out = t("//#omp parallel for proc_bind(close)
for i in 0..n { a(i); }");
        assert!(
            out.contains("proc_bind(close), "),
            "combined parallel for must forward proc_bind: {out}"
        );
    }

    #[test]
    fn parallel_for_simple() {
        let out = t("//#omp parallel for schedule(dynamic, 4)\nfor i in 0..n { a(i); }");
        assert!(
            out.contains(
                "romp_core::omp_parallel_for!(schedule(dynamic, 4), for i in (0..n) { a(i); });"
            ),
            "{out}"
        );
    }

    #[test]
    fn auto_and_runtime_schedules_translate_verbatim() {
        // `auto` and `runtime` lower like every other kind: the clause
        // is forwarded as written and nothing is added after it.
        let out = t("before();\n//#omp parallel for schedule(auto)\nfor i in 0..n { a(i); }");
        assert!(
            out.contains("omp_parallel_for!(schedule(auto), for i in (0..n) { a(i); });"),
            "{out}"
        );
        let out = t("//#omp parallel\n{\n//#omp for schedule(runtime)\nfor i in 0..8 { f(i); }\n}");
        assert!(
            out.contains("schedule(runtime), for i in (0..8) {"),
            "{out}"
        );
    }

    #[test]
    fn parallel_for_reduction_writes_back() {
        let out = t("//#omp parallel for reduction(+:sum)\nfor i in 0..n { sum += x[i]; }");
        assert!(out.contains("reduction(+ : sum = sum)"), "{out}");
        assert!(out.contains("let (__omp_red_0,)"), "{out}");
        assert!(out.contains("sum = __omp_red_0;"), "{out}");
    }

    #[test]
    fn nested_for_gets_ctx() {
        let out = t("//#omp parallel\n{\n//#omp for schedule(static)\nfor i in 0..10 { f(i); }\n}");
        assert!(out.contains("|__omp_ctx_0|"), "{out}");
        assert!(
            out.contains("romp_core::omp_for!(__omp_ctx_0, schedule(static), for i in (0..10)"),
            "{out}"
        );
    }

    #[test]
    fn barrier_and_taskwait_standalone() {
        let out = t("//#omp parallel\n{\n//#omp barrier\n//#omp taskwait\n}");
        assert!(
            out.contains("romp_core::omp_barrier!(__omp_ctx_0);"),
            "{out}"
        );
        assert!(
            out.contains("romp_core::omp_taskwait!(__omp_ctx_0);"),
            "{out}"
        );
    }

    #[test]
    fn orphaned_for_is_an_error() {
        let e = translate("//#omp for\nfor i in 0..3 { f(i); }").unwrap_err();
        assert!(e[0].message.contains("nested inside"), "{e:?}");
    }

    #[test]
    fn critical_named_and_unnamed() {
        let out =
            t("//#omp parallel\n{\n//#omp critical\n{ a(); }\n//#omp critical (tag)\n{ b(); }\n}");
        assert!(out.contains("romp_core::omp_critical!({ a(); });"), "{out}");
        assert!(
            out.contains("romp_core::omp_critical!(tag, { b(); });"),
            "{out}"
        );
    }

    #[test]
    fn single_master_wrapped() {
        let out =
            t("//#omp parallel\n{\n//#omp single nowait\n{ s(); }\n//#omp master\n{ m(); }\n}");
        assert!(
            out.contains("romp_core::omp_single!(__omp_ctx_0, nowait, { s(); });"),
            "{out}"
        );
        assert!(
            out.contains("romp_core::omp_master!(__omp_ctx_0, { m(); });"),
            "{out}"
        );
    }

    #[test]
    fn sections_split_on_markers() {
        let out = t(
            "//#omp parallel\n{\n//#omp sections\n{\n//#omp section\n{ a(); }\n//#omp section\n{ b(); }\n}\n}",
        );
        let flat: String = out.split_whitespace().collect::<Vec<_>>().join(" ");
        assert!(
            flat.contains("romp_core::omp_sections!(__omp_ctx_0, { { a(); } } { { b(); } } );"),
            "{flat}"
        );
    }

    #[test]
    fn task_with_firstprivate_clones_before_move() {
        let out = t("//#omp parallel\n{\n//#omp task firstprivate(v)\n{ use_it(v); }\n}");
        assert!(
            out.contains("let __omp_fp_v = ::std::clone::Clone::clone(&v);"),
            "{out}"
        );
        assert!(
            out.contains("#[allow(unused_mut)] let mut v = __omp_fp_v;"),
            "{out}"
        );
        assert!(out.contains("romp_core::omp_task!(__omp_ctx_0,"), "{out}");
    }

    #[test]
    fn task_depend_with_firstprivate_keeps_original_address() {
        // The dependence list must name the ORIGINAL variable (the
        // clause is outside the closure); the clone only rebinds inside
        // the body.
        let out = t("//#omp parallel\n{\n//#omp task depend(inout: acc) firstprivate(acc)\n{ use_it(acc); }\n}");
        assert!(out.contains("depend(inout: acc)"), "{out}");
        assert!(
            out.contains("let __omp_fp_acc = ::std::clone::Clone::clone(&acc);"),
            "{out}"
        );
        let dep_pos = out.find("depend(inout: acc)").unwrap();
        let rebind_pos = out.find("let mut acc = __omp_fp_acc").unwrap();
        assert!(
            rebind_pos > dep_pos,
            "rebinding must happen inside the body, after the clause: {out}"
        );
    }

    #[test]
    fn task_depend_final_if_forwarded() {
        let out = t(
            "//#omp parallel\n{\n//#omp task depend(in: a, tok[idx(i, j)]) \
             depend(out: b) final(d > 3) if(n > 10)\n{ go(); }\n}",
        );
        assert!(
            out.contains(
                "romp_core::omp_task!(__omp_ctx_0, depend(in: a, tok[idx(i, j)]), \
                 depend(out: b), final(d > 3), if(n > 10), { go(); });"
            ),
            "{out}"
        );
    }

    #[test]
    fn task_depend_inout_forwarded() {
        let out = t("//#omp parallel\n{\n//#omp task depend(inout: acc)\n{ bump(); }\n}");
        assert!(
            out.contains("romp_core::omp_task!(__omp_ctx_0, depend(inout: acc), { bump(); });"),
            "{out}"
        );
    }

    #[test]
    fn taskloop_clauses_forwarded() {
        let out = t(
            "//#omp parallel\n{\n//#omp taskloop num_tasks(4 * nt) nogroup\n\
             for i in 0..n { f(i); }\n}",
        );
        assert!(
            out.contains(
                "romp_core::omp_taskloop!(__omp_ctx_0, num_tasks(4 * nt), nogroup, \
                 for i in (0..n) { f(i); });"
            ),
            "{out}"
        );
        let out =
            t("//#omp parallel\n{\n//#omp taskloop grainsize(16)\nfor i in 0..n { f(i); }\n}");
        assert!(
            out.contains(
                "romp_core::omp_taskloop!(__omp_ctx_0, grainsize(16), for i in (0..n) { f(i); });"
            ),
            "{out}"
        );
    }

    #[test]
    fn taskloop_requires_region_and_simple_loop() {
        let e = translate("//#omp taskloop\nfor i in 0..3 { f(i); }").unwrap_err();
        assert!(e[0].message.contains("nested inside"), "{e:?}");
        let e = translate(
            "//#omp parallel\n{\n//#omp taskloop\nfor (i, j) in (0..n, 0..m) { f(i, j); }\n}",
        )
        .unwrap_err();
        assert!(e[0].message.contains("single loop variable"), "{e:?}");
    }

    #[test]
    fn cancel_directives_emit_early_returns() {
        let out = t(
            "//#omp parallel\n{\n//#omp for schedule(dynamic, 64)\nfor i in 0..n {\n             if hay[i] == 0 {\n//#omp cancel for\n}\n//#omp cancellation point for\n}\n}",
        );
        assert!(
            out.contains("if romp_core::omp_cancel!(__omp_ctx_0, for) { return; }"),
            "{out}"
        );
        assert!(
            out.contains("if romp_core::omp_cancellation_point!(__omp_ctx_0, for) { return; }"),
            "{out}"
        );
    }

    #[test]
    fn cancel_if_clause_forwarded() {
        let out = t("//#omp parallel\n{\n//#omp cancel parallel if(err > 3)\n}");
        assert!(
            out.contains(
                "if romp_core::omp_cancel!(__omp_ctx_0, parallel, if(err > 3)) { return; }"
            ),
            "{out}"
        );
    }

    #[test]
    fn cancel_taskgroup_inside_task_body() {
        let out = t("//#omp parallel\n{\n//#omp task\n{\n//#omp cancel taskgroup\n}\n}");
        assert!(
            out.contains("if romp_core::omp_cancel!(__omp_ctx_0, taskgroup) { return; }"),
            "{out}"
        );
    }

    #[test]
    fn orphaned_cancel_is_an_error() {
        let e = translate("//#omp cancel parallel\n").unwrap_err();
        assert!(e[0].message.contains("nested inside"), "{e:?}");
        let e = translate("//#omp cancellation point parallel\n").unwrap_err();
        assert!(e[0].message.contains("nested inside"), "{e:?}");
    }

    #[test]
    fn atomic_lowers_to_critical() {
        let out = t("//#omp parallel\n{\n//#omp atomic\n{ x += 1; }\n}");
        assert!(
            out.contains("romp_core::omp_critical!({ x += 1; });"),
            "{out}"
        );
    }

    #[test]
    fn step_by_header_preserved() {
        let out = t("//#omp parallel for\nfor i in (0..100).step_by(5) { f(i); }");
        assert!(out.contains("for i in (0..100).step_by(5)"), "{out}");
    }

    #[test]
    fn collapse2_emits_tuple_header() {
        let out = t("//#omp parallel for collapse(2) schedule(dynamic, 4)\n\
             for (i, j) in (0..n, 0..m) { f(i, j); }");
        assert!(
            out.contains(
                "romp_core::omp_parallel_for!(schedule(dynamic, 4), collapse(2), \
                 for (i, j) in (0..n, 0..m) { f(i, j); });"
            ),
            "{out}"
        );
    }

    #[test]
    fn collapse3_inside_region() {
        let out = t("//#omp parallel\n{\n//#omp for collapse(3)\n\
             for (i, j, k) in (0..a, 0..b, 0..c) { g(i, j, k); }\n}");
        assert!(
            out.contains(
                "romp_core::omp_for!(__omp_ctx_0, collapse(3), \
                 for (i, j, k) in (0..a, 0..b, 0..c)"
            ),
            "{out}"
        );
    }

    #[test]
    fn step_clause_forwarded() {
        let out = t("//#omp parallel for step(-3) schedule(guided)\nfor i in hi..lo { f(i); }");
        assert!(
            out.contains(
                "romp_core::omp_parallel_for!(schedule(guided), step(-3), for i in (hi..lo)"
            ),
            "{out}"
        );
    }

    #[test]
    fn collapse_without_tuple_header_diagnosed() {
        let e = translate("//#omp parallel for collapse(2)\nfor i in 0..n { f(i); }").unwrap_err();
        assert!(e[0].message.contains("tuple loop header"), "{e:?}");
    }

    #[test]
    fn tuple_header_without_collapse_clause_diagnosed() {
        // The emitted lowering would fuse; require the directive to say
        // so explicitly.
        for src in [
            "//#omp parallel for\nfor (i, j) in (0..n, 0..m) { f(i, j); }",
            "//#omp parallel for collapse(1)\nfor (i, j) in (0..n, 0..m) { f(i, j); }",
        ] {
            let e = translate(src).unwrap_err();
            assert!(e[0].message.contains("collapse(2)"), "{src}: {e:?}");
        }
    }

    #[test]
    fn step_with_step_by_header_diagnosed() {
        let e = translate("//#omp parallel for step(2)\nfor i in (0..n).step_by(3) { f(i); }")
            .unwrap_err();
        assert!(e[0].message.contains("cannot combine"), "{e:?}");
    }

    #[test]
    fn step_with_collapse_diagnosed() {
        let e = translate(
            "//#omp parallel for collapse(2) step(2)\nfor (i, j) in (0..n, 0..m) { f(i, j); }",
        )
        .unwrap_err();
        assert!(e[0].message.contains("cannot combine"), "{e:?}");
    }

    #[test]
    fn private_injected_into_body() {
        let out = t("//#omp parallel for private(t)\nfor i in 0..5 { t = i; g(t); }");
        assert!(out.contains("let mut t;"), "{out}");
    }

    #[test]
    fn firstprivate_on_parallel_passes_through() {
        let out = t("//#omp parallel firstprivate(base)\n{ h(base); }");
        assert!(out.contains("firstprivate(base), |__omp_ctx_0|"), "{out}");
    }

    #[test]
    fn source_without_directives_unchanged() {
        let src = "fn main() {\n    println!(\"no directives here\");\n}\n";
        assert_eq!(t(src), src);
    }

    #[test]
    fn bad_directive_reports_position() {
        let e = translate("fn f() {\n    //#omp paralel\n    { }\n}").unwrap_err();
        assert_eq!(e[0].line, 2);
        assert!(e[0].message.contains("unknown directive"));
    }

    #[test]
    fn multiple_errors_all_reported() {
        let e = translate("//#omp bogus1\n{ }\n//#omp bogus2\n{ }").unwrap_err();
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn reduction_on_bare_parallel_rejected() {
        let e = translate("//#omp parallel reduction(+:x)\n{ }").unwrap_err();
        assert!(e[0].message.contains("not supported"), "{e:?}");
    }
}
