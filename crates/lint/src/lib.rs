//! `anton2-lint` — workspace static analysis for the Anton 2 reproduction.
//!
//! Anton 2's event-driven operation works because every node computes
//! bitwise-identical results on a fixed schedule. This workspace reproduces
//! that discipline in software through invariants — bitwise serial ≡
//! parallel fixed-chunk reductions, zero steady-state allocation on the
//! force path, deterministic iteration everywhere — that runtime tests can
//! only spot-check. This tool checks them *statically*, over every function
//! in every crate, before anything runs:
//!
//! | rule | what it forbids |
//! |------|-----------------|
//! | `nondet` | `HashMap`/`HashSet`, `Instant`/`SystemTime`, `rand` in hot modules + hot set |
//! | `zero-alloc` | allocation-capable calls anywhere in the derived hot set |
//! | `float-reduction` | bare float `.sum()`/`fold` outside approved helpers |
//! | `unsafe-audit` | `unsafe` without a `// SAFETY:` comment |
//! | `telemetry-discipline` | counter mutation outside the `Telemetry` API |
//! | `panic-freedom` | `unwrap`/`expect`/`panic!`/unchecked indexing in the hot set |
//! | `shard-isolation` | shard-context code reaching driver-only fns or driver telemetry |
//! | `dead-counter` | telemetry counters no production code increments |
//!
//! The *hot set* is no longer a hand-written list: [`manifest`] declares
//! only the entry points (the per-step `Phase` implementations, the shard
//! evaluate/merge paths, the network protocol) and the analyzer derives
//! everything reachable from them through the workspace call graph
//! ([`symbols`] → [`callgraph`] → [`reach`] → [`workspace`]).
//!
//! Run as `cargo run -p anton2-lint -- --check` (CI does);
//! `--explain <rule>` prints a family's rationale and escape hatch, and
//! `--graph-json` dumps the derived hot set for CI diffing. See
//! DESIGN.md §12/§17 for the rule rationale and analyzer design, and
//! [`baseline`] for the grandfathering mechanism.
//!
//! The analyzer is a hand-rolled token-level [`lexer`] — no `syn`, no
//! dependencies — which keeps it building offline and keeps the rules
//! honest: anything a rule matches is visible in the token stream.

pub mod baseline;
pub mod callgraph;
pub mod lexer;
pub mod manifest;
pub mod reach;
pub mod rules;
pub mod symbols;
pub mod workspace;

pub use reach::Spec;
pub use rules::{analyze_source, Finding, Rule};
pub use workspace::{analyze_workspace, render_graph_json, Analysis, WorkspaceError};

use std::fs;
use std::io;
use std::path::Path;

/// Lint one on-disk file with the per-file families only (the transitive
/// families need the whole workspace — use [`analyze_workspace`]). `path`
/// is used verbatim as the report path, so pass it workspace-relative when
/// possible.
pub fn lint_file(path: &Path) -> io::Result<Vec<Finding>> {
    let source = fs::read_to_string(path)?;
    Ok(analyze_source(
        &path.to_string_lossy().replace('\\', "/"),
        &source,
    ))
}

/// Render findings as the human report (one line per finding, sorted).
pub fn render_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n    {}\n",
            f.path,
            f.line,
            f.rule.name(),
            f.message,
            f.excerpt
        ));
    }
    if findings.is_empty() {
        out.push_str("anton2-lint: no findings\n");
    } else {
        out.push_str(&format!("anton2-lint: {} finding(s)\n", findings.len()));
    }
    out
}

/// Render findings as machine-readable JSON (hand-rolled — the tool is
/// dependency-free by design).
pub fn render_json(findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\", \
             \"excerpt\": \"{}\"}}{}\n",
            f.rule.name(),
            esc(&f.path),
            f.line,
            esc(&f.message),
            esc(&f.excerpt),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!("  ],\n  \"total\": {}\n}}\n", findings.len()));
    out
}

/// Sort findings into canonical report order (path, line, rule).
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes_and_newlines() {
        let f = vec![Finding {
            rule: Rule::UnsafeAudit,
            path: "a \"b\".rs".to_string(),
            line: 1,
            message: "line1\nline2".to_string(),
            excerpt: "\t".to_string(),
        }];
        let j = render_json(&f);
        assert!(j.contains("a \\\"b\\\".rs"));
        assert!(j.contains("line1\\nline2"));
        assert!(j.contains("\"total\": 1"));
    }

    #[test]
    fn human_report_mentions_rule_and_location() {
        let f = vec![Finding {
            rule: Rule::Nondet,
            path: "crates/md/src/cells.rs".to_string(),
            line: 42,
            message: "m".to_string(),
            excerpt: "x".to_string(),
        }];
        let h = render_human(&f);
        assert!(h.contains("crates/md/src/cells.rs:42: [nondet] m"));
        assert!(h.contains("1 finding"));
    }
}
