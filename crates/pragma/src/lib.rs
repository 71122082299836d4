//! # romp-pragma — the `//#omp` source-to-source translator
//!
//! The paper adds OpenMP to Zig by *preprocessing*: a pass early in
//! compilation scans for directive comments (Zig, like Rust, has no
//! native pragmas), parses them, extracts the annotated code blocks into
//! functions, and inserts calls to the OpenMP runtime (Figure 1 of the
//! paper). This crate is that pass for Rust:
//!
//! 1. **Scan** ([`source::find_directives`]) — locate `//#omp …`
//!    comments in real code, string- and comment-aware.
//! 2. **Parse** ([`directive::parse`]) — tokenize and parse the
//!    directive text into a typed AST, validating clause/directive
//!    compatibility.
//! 3. **Extract** ([`source::next_construct`]) — find the following
//!    `{ … }` block or `for` loop with exact brace matching.
//! 4. **Outline & generate** ([`codegen::translate`]) — rewrite the
//!    construct into `romp_core` directive-layer calls (which expand to
//!    the same `fork`/worksharing runtime calls the paper's pass
//!    inserts).
//!
//! The `rompcc` binary drives this as `rompcc input.rs -o output.rs`;
//! `--emit=stages` prints every pipeline stage (the Figure 1 demo).
//!
//! ```
//! let src = "
//! //#omp parallel for schedule(guided) reduction(+ : sum)
//! for i in 0..n { sum += f(i); }
//! ";
//! let out = romp_pragma::translate(src).unwrap();
//! assert!(out.contains("romp_core::omp_parallel_for!"));
//! assert!(out.contains("schedule(guided)"));
//! ```

#![warn(missing_docs)]

pub mod codegen;
pub mod diag;
pub mod directive;
pub mod source;

pub use codegen::translate;
pub use diag::Diag;
pub use directive::{
    parse as parse_directive, CancelableConstruct, Clause, Directive, DirectiveKind,
};
pub use source::{find_directives, next_construct, FoundDirective, NextConstruct, SENTINEL};

use std::fmt::Write as _;

/// Render the full Figure-1 pipeline for a source file: located
/// directives, their tokens, the parsed ASTs, the extracted construct
/// spans, and the generated output (or the diagnostics).
pub fn pipeline_stages(src: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "==== stage 1: directive comments located ====");
    let found = find_directives(src);
    let lines = diag::LineIndex::new(src);
    if found.is_empty() {
        let _ = writeln!(out, "(none)");
    }
    for f in &found {
        let (line, col) = lines.line_col(f.start);
        let _ = writeln!(out, "  line {line:>4}, col {col:>3}:  //#omp {}", f.text);
    }

    let _ = writeln!(out, "\n==== stage 2: directive tokens ====");
    for f in &found {
        match directive::lex(&f.text) {
            Ok(toks) => {
                let rendered: Vec<String> = toks.iter().map(|(_, t)| format!("{t:?}")).collect();
                let _ = writeln!(out, "  {} -> [{}]", f.text, rendered.join(", "));
            }
            Err(e) => {
                let _ = writeln!(out, "  {} -> lex error: {}", f.text, e.message);
            }
        }
    }

    let _ = writeln!(out, "\n==== stage 3: parsed directive AST ====");
    for f in &found {
        match directive::parse(&f.text) {
            Ok(d) => {
                let _ = writeln!(out, "  {:?} clauses={:?}", d.kind, d.clauses);
            }
            Err(e) => {
                let _ = writeln!(out, "  parse error: {}", e.message);
            }
        }
    }

    let _ = writeln!(out, "\n==== stage 4: extracted code blocks ====");
    for f in &found {
        match directive::parse(&f.text) {
            Ok(d) if d.kind.takes_block() => match next_construct(src, f.end) {
                Ok(NextConstruct::Block { open, close }) => {
                    let snippet = first_line(&src[open..=close]);
                    let _ = writeln!(out, "  block [{open}..={close}]  {snippet}");
                }
                Ok(NextConstruct::ForLoop {
                    pat, iter, close, ..
                }) => {
                    let _ = writeln!(
                        out,
                        "  for-loop  var=`{pat}` iter=`{iter}` body ends at {close}"
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "  extraction error: {}", e.message);
                }
            },
            Ok(d) => {
                let _ = writeln!(out, "  `{}` is stand-alone (no block)", d.kind.name());
            }
            Err(_) => {}
        }
    }

    let _ = writeln!(out, "\n==== stage 5: generated source ====");
    match translate(src) {
        Ok(code) => {
            let _ = writeln!(out, "{code}");
        }
        Err(diags) => {
            for d in diags {
                let _ = writeln!(out, "{d}");
            }
        }
    }
    out
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or("").trim_end()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_stages_cover_all_five() {
        let src = "//#omp parallel for schedule(static, 8)\nfor i in 0..64 { touch(i); }\n";
        let stages = pipeline_stages(src);
        for marker in [
            "stage 1",
            "stage 2",
            "stage 3",
            "stage 4",
            "stage 5",
            "ParallelFor",
            "romp_core::omp_parallel_for!",
        ] {
            assert!(stages.contains(marker), "missing `{marker}` in:\n{stages}");
        }
    }

    #[test]
    fn pipeline_reports_errors_in_stage_5() {
        let stages = pipeline_stages("//#omp bogus\n{ }\n");
        assert!(stages.contains("unknown directive"), "{stages}");
    }
}
