//! `translate`: the paper's preprocessing pass as compile time.
//!
//! `romp_pragma::translate` over a seeded corpus built from the four
//! `tests/fixtures/*_annotated.rs` sources: 400 small units (the four
//! fixtures in a seeded order, ~174 lines) and one large unit (all 400
//! concatenated, ~70 k lines). Single-threaded and free of runtime
//! work, so it is also the noise canary for every change elsewhere.
//! The two sizes expose how per-line cost grows with unit length.
//!
//! Every output is compared byte for byte with a reference assembled
//! from the hand-checked `*_translated.rs` goldens, never from the
//! translator under test: translation is local to a construct, so a
//! concatenation of sources translates to the concatenation of their
//! goldens, except that the `site("rompcc:<line>")` stamps move with
//! the line offset of each part.

use crate::harness::{span_median, Cfg, Checks, Env, Workload};
use crate::metrics::Layer;
use crate::trace::{self, Span};
use crate::workloads::{rng, shuffle};
use romp::pragma::{find_directives, parse_directive, translate};
use std::time::Instant;

/// `(annotated source, golden translation)` of the four base fixtures.
const FIXTURES: [(&str, &str); 4] = [
    (
        include_str!("../../../tests/fixtures/pi_annotated.rs"),
        include_str!("../../../tests/fixtures/pi_translated.rs"),
    ),
    (
        include_str!("../../../tests/fixtures/wavefront_annotated.rs"),
        include_str!("../../../tests/fixtures/wavefront_translated.rs"),
    ),
    (
        include_str!("../../../tests/fixtures/search_annotated.rs"),
        include_str!("../../../tests/fixtures/search_translated.rs"),
    ),
    (
        include_str!("../../../tests/fixtures/kacz_annotated.rs"),
        include_str!("../../../tests/fixtures/kacz_translated.rs"),
    ),
];

const SMALL_UNITS: usize = 400;
const SITE_STAMP: &str = "site(\"rompcc:";

/// `golden` with every `site("rompcc:<line>")` stamp moved down by
/// `offset` lines.
fn shift_site_stamps(golden: &str, offset: usize) -> String {
    let mut out = String::with_capacity(golden.len() + 16);
    let mut rest = golden;
    while let Some(at) = rest.find(SITE_STAMP) {
        let (head, tail) = rest.split_at(at + SITE_STAMP.len());
        out.push_str(head);
        let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
        let line: usize = tail[..digits]
            .parse()
            .expect("site stamp carries a line number");
        out.push_str(&(line + offset).to_string());
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

fn translates_to<E>(out: &Result<String, E>, want: &str) -> bool {
    matches!(out, Ok(got) if got == want)
}

/// One translation unit with its expected output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unit {
    /// Annotated source.
    pub src: String,
    /// Reference translation.
    pub expect: String,
    /// Source lines.
    pub lines: usize,
}

impl Unit {
    /// Concatenate fixtures (by index) into one unit.
    fn of(parts: impl IntoIterator<Item = usize>) -> Unit {
        let mut unit = Unit {
            src: String::new(),
            expect: String::new(),
            lines: 0,
        };
        for p in parts {
            let (src, golden) = FIXTURES[p];
            unit.expect.push_str(&shift_site_stamps(golden, unit.lines));
            unit.src.push_str(src);
            unit.lines += src.lines().count();
        }
        unit
    }
}

/// The seeded corpus: the small units, then the large one.
pub fn corpus(seed: u64) -> Vec<Unit> {
    let mut r = rng(seed, 6);
    let orders: Vec<[usize; 4]> = (0..SMALL_UNITS)
        .map(|_| {
            let mut order = [0, 1, 2, 3];
            shuffle(&mut order, &mut r);
            order
        })
        .collect();
    let mut units: Vec<Unit> = orders.iter().map(|&o| Unit::of(o)).collect();
    units.push(Unit::of(orders.iter().flatten().copied()));
    units
}

/// The corpus under translation.
pub struct Translate {
    units: Vec<Unit>,
    directives: usize,
    output_bytes: usize,
}

impl Translate {
    /// Set-up: check the translator against the four committed goldens,
    /// then generate the corpus and its references.
    pub fn build(cfg: &Cfg, checks: &mut Checks) -> Translate {
        for (src, golden) in FIXTURES {
            checks.check(translates_to(&translate(src), golden), || {
                "a base fixture no longer translates to its committed golden".into()
            });
        }
        let units = trace::span("bench.translate.corpus", 0, || corpus(cfg.seed));
        Translate {
            units,
            directives: 0,
            output_bytes: 0,
        }
    }

    fn large(&self) -> &Unit {
        self.units.last().expect("corpus ends with the large unit")
    }
}

impl Workload for Translate {
    fn has_one_thread_baseline(&self) -> bool {
        false
    }

    fn rep(&mut self, _threads: usize, env: &mut Env<'_>) -> f64 {
        let mut lines = 0;
        self.output_bytes = 0;
        for (i, unit) in self.units.iter().enumerate() {
            let name = if i < SMALL_UNITS {
                "pragma.translate_small"
            } else {
                "pragma.translate_large"
            };
            let t0 = Instant::now();
            let out = trace::span(name, env.op, || translate(&unit.src));
            env.lat_s.push(t0.elapsed().as_secs_f64());
            env.checks.check(translates_to(&out, &unit.expect), || {
                format!("unit {i}: translation differs from the golden reference")
            });
            self.output_bytes += out.map_or(0, |o| o.len());
            lines += unit.lines;
        }
        lines as f64
    }

    fn probes(&mut self, _threads: usize, _budget_s: f64, env: &mut Env<'_>) {
        // The pass's first two stages on their own, over the large unit.
        for _ in 0..5 {
            let src = &self.large().src;
            let found = trace::span("pragma.find", env.op, || find_directives(src));
            let parsed = trace::span("pragma.parse", env.op, || {
                found
                    .iter()
                    .filter(|d| parse_directive(&d.text).is_ok())
                    .count()
            });
            env.checks.check(parsed == found.len(), || {
                format!(
                    "{} of {} directives failed to parse",
                    found.len() - parsed,
                    found.len()
                )
            });
            // Per rep the corpus holds every directive twice: once in
            // its small unit, once in the large one.
            self.directives = 2 * found.len();
        }
    }

    fn layer_metrics(&self, spans: &[Span], out: &mut Layer) {
        let per_s = |count: f64, span: &str| {
            let s = span_median(spans, span);
            if s > 0.0 {
                count / s
            } else {
                0.0
            }
        };
        let large_lines = self.large().lines as f64;
        let small_lines = self.units[0].lines as f64;
        let small = per_s(small_lines, "pragma.translate_small");
        let large = per_s(large_lines, "pragma.translate_large");
        out.set("pragma.find_lines_per_s", per_s(large_lines, "pragma.find"));
        out.set(
            "pragma.parse_directives_per_s",
            per_s(self.directives as f64 / 2.0, "pragma.parse"),
        );
        out.set("pragma.translate_small_lines_per_s", small);
        out.set("pragma.translate_large_lines_per_s", large);
        if large > 0.0 {
            // Per-line cost of the large unit over the small ones.
            out.set("pragma.scaling_ratio", small / large);
        }
        out.set("pragma.directives", self.directives as f64);
        out.set("pragma.output_bytes", self.output_bytes as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_stamps_shift_by_the_line_offset() {
        let g = "a site(\"rompcc:34\"), b\nsite(\"rompcc:7\") site(\"other:1\")";
        assert_eq!(
            shift_site_stamps(g, 100),
            "a site(\"rompcc:134\"), b\nsite(\"rompcc:107\") site(\"other:1\")"
        );
        assert_eq!(shift_site_stamps(g, 0), g);
    }

    #[test]
    fn corpus_is_seeded_and_references_hold() {
        let a = corpus(9);
        assert_eq!(a, corpus(9));
        assert_ne!(a, corpus(10));
        assert_eq!(a.len(), SMALL_UNITS + 1);
        let total: usize = a[..SMALL_UNITS].iter().map(|u| u.lines).sum();
        assert_eq!(a[SMALL_UNITS].lines, total);
        // The concatenation property the references rest on.
        for unit in &a[..3] {
            assert!(translates_to(&translate(&unit.src), &unit.expect));
        }
    }
}
