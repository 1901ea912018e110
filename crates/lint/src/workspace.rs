//! Phase 2b: the whole-workspace analysis — per-file rules plus the
//! call-graph families (transitive zero-alloc/panic-freedom/nondet/
//! float-reduction over the derived hot set, shard-isolation, and
//! dead-counter) — and the `--graph-json` dump.

use crate::callgraph::CallGraph;
use crate::manifest::{EntryKind, COUNTER_FIELDS, HOT_MODULES, SKIP_DIRS, TELEMETRY_FILE};
use crate::reach::{Reachability, Spec};
use crate::rules::{
    allow_map, analyze_source_inner, nondet_why, scan_alloc, scan_float_reduction, scan_nondet,
    scan_panic, Finding, Rule,
};
use crate::symbols::{FnId, SymbolTable};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Whole-workspace analysis output: findings plus the derived facts the
/// graph dump and the test suite inspect.
#[derive(Debug)]
pub struct Analysis {
    pub findings: Vec<Finding>,
    pub table: SymbolTable,
    pub graph: CallGraph,
    pub reach: Reachability,
    pub spec: Spec,
}

/// Workspace analysis failure: I/O, or manifest drift (a manifest entry
/// naming an unknown symbol) — both exit with status 2, before any
/// findings are reported.
#[derive(Debug)]
pub enum WorkspaceError {
    Io(io::Error),
    Manifest(Vec<String>),
}

impl std::fmt::Display for WorkspaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkspaceError::Io(e) => write!(f, "{e}"),
            WorkspaceError::Manifest(errors) => {
                for (i, e) in errors.iter().enumerate() {
                    if i > 0 {
                        writeln!(f)?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
        }
    }
}

/// Analyze the workspace rooted at `root` with the real manifest.
pub fn analyze_workspace(root: &Path) -> Result<Analysis, WorkspaceError> {
    analyze_workspace_with(root, &Spec::workspace_default())
}

/// Analyze the workspace rooted at `root` with a custom spec (fixture
/// workspaces in the test suite).
pub fn analyze_workspace_with(root: &Path, spec: &Spec) -> Result<Analysis, WorkspaceError> {
    let sources = read_sources(root).map_err(WorkspaceError::Io)?;
    analyze_sources(sources, spec).map_err(WorkspaceError::Manifest)
}

/// Collect `(relative path, source)` for every scanned file under `root`.
fn read_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "examples", "tests", "benches"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, fs::read_to_string(f)?));
    }
    Ok(sources)
}

pub(crate) fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The pure core: analyze in-memory sources against `spec`.
pub fn analyze_sources(
    sources: Vec<(String, String)>,
    spec: &Spec,
) -> Result<Analysis, Vec<String>> {
    let table = SymbolTable::build(&sources);
    let graph = CallGraph::build(&table);
    let reach = Reachability::compute(&table, &graph, spec)?;

    let mut findings = Vec::new();
    // Per-file families (nondet/float-reduction in hot modules,
    // unsafe-audit, telemetry-discipline). Hot-fn families are handled
    // transitively below, so `hot_fn_rules = false`.
    for (path, source) in &sources {
        findings.extend(analyze_source_inner(path, source, false));
    }

    let file_idx_of: BTreeMap<&str, usize> = table
        .files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.path.as_str(), i))
        .collect();

    hot_set_rules(&table, &reach, spec, &file_idx_of, &mut findings);
    shard_isolation(&table, &reach, spec, &file_idx_of, &mut findings);
    dead_counters(&table, &graph, &mut findings);

    // Workspace findings must honor per-file allow comments too.
    let allows: Vec<_> = table.files.iter().map(|f| allow_map(&f.lexed)).collect();
    findings.retain(|f| {
        let Some(&fi) = file_idx_of.get(f.path.as_str()) else {
            return true;
        };
        !allows[fi]
            .get(&f.line)
            .is_some_and(|rules| rules.contains(&f.rule))
    });
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    findings.dedup();

    Ok(Analysis {
        findings,
        table,
        graph,
        reach,
        spec: spec.clone(),
    })
}

/// Trimmed source line for a finding excerpt.
fn excerpt(table: &SymbolTable, file_idx: usize, line: u32) -> String {
    table.files[file_idx]
        .lines
        .get(line as usize - 1)
        .map(|l| l.trim().to_string())
        .unwrap_or_default()
}

/// Token spans of *other* fns nested inside `id`'s body — excluded from
/// scans so a construct reports once, under its innermost enclosing fn.
fn nested_spans(table: &SymbolTable, file_idx: usize, id: FnId) -> Vec<(usize, usize)> {
    let (start, end) = table.fns[id].body;
    table.fns_of_file[file_idx]
        .iter()
        .filter(|&&other| other != id)
        .map(|&other| table.fns[other].body)
        .filter(|(s, e)| *s > start && *e <= end)
        .collect()
}

/// Zero-alloc, panic-freedom, and (outside hot modules) nondet and
/// float-reduction over every derived-hot function body.
fn hot_set_rules(
    table: &SymbolTable,
    reach: &Reachability,
    spec: &Spec,
    file_idx_of: &BTreeMap<&str, usize>,
    findings: &mut Vec<Finding>,
) {
    for id in 0..table.fns.len() {
        if !reach.hot[id] || table.fns[id].is_test {
            continue;
        }
        let sym = &table.fns[id];
        let fi = file_idx_of[sym.path.as_str()];
        let toks = &table.files[fi].lexed.tokens;
        let (start, end) = sym.body;
        let nested = nested_spans(table, fi, id);
        let in_nested = |i: usize| nested.iter().any(|(s, e)| (*s..*e).contains(&i));
        let via = {
            let p = reach.render_path(table, &reach.parent, id);
            if p.contains("->") {
                format!(" (hot via {p})")
            } else {
                String::new() // the fn is itself an entry point
            }
        };
        let mut push = |rule: Rule, line: u32, message: String| {
            findings.push(Finding {
                rule,
                path: sym.path.clone(),
                line,
                message,
                excerpt: excerpt(table, fi, line),
            });
        };

        if !spec.is_alloc_exempt(sym) {
            for (line, what) in scan_alloc(toks, start, end) {
                if !in_nested_line(&nested, toks, line) {
                    push(
                        Rule::ZeroAlloc,
                        line,
                        format!("{what} inside hot fn `{}`{via}", sym.name),
                    );
                }
            }
        }
        for (line, what) in scan_panic(toks, start, end) {
            if !in_nested_line(&nested, toks, line) {
                push(
                    Rule::PanicFreedom,
                    line,
                    format!("{what} inside hot fn `{}`{via}", sym.name),
                );
            }
        }
        // Hot-module files already get whole-file nondet/float-reduction
        // from the per-file pass; extend those families to hot helpers
        // that live elsewhere.
        if !HOT_MODULES.contains(&sym.basename.as_str()) {
            for (line, ident) in scan_nondet(toks, start, end) {
                if !in_nested_line(&nested, toks, line) {
                    push(
                        Rule::Nondet,
                        line,
                        format!(
                            "`{ident}` in hot fn `{}`{via}: {}",
                            sym.name,
                            nondet_why(&ident)
                        ),
                    );
                }
            }
            if !spec.is_reduction_helper(sym) {
                let skip = |i: usize| in_nested(i);
                for (line, msg) in scan_float_reduction(toks, start, end, &skip) {
                    push(
                        Rule::FloatReduction,
                        line,
                        format!("{msg} (hot fn `{}`)", sym.name),
                    );
                }
            }
        }
    }
}

/// Cheap line-level check: was this hit inside a nested fn's span?
/// (`scan_*` return lines, not token indices; a nested fn's lines lie
/// strictly inside its token span's line range.)
fn in_nested_line(nested: &[(usize, usize)], toks: &[crate::lexer::Tok], line: u32) -> bool {
    nested.iter().any(|&(s, e)| {
        let first = toks.get(s).map(|t| t.line).unwrap_or(u32::MAX);
        let last = toks.get(e.saturating_sub(1)).map(|t| t.line).unwrap_or(0);
        (first..=last).contains(&line)
    })
}

/// Shard-isolation: shard-context reachability may not include driver-only
/// functions, and shard-context bodies may not write telemetry through a
/// bare (driver-owned) `tel` binding.
fn shard_isolation(
    table: &SymbolTable,
    reach: &Reachability,
    spec: &Spec,
    file_idx_of: &BTreeMap<&str, usize>,
    findings: &mut Vec<Finding>,
) {
    // (1) Driver-only fns reachable from shard context.
    for (file, name) in &spec.driver_only {
        for id in table.resolve_manifest(file, name) {
            if reach.shard[id] {
                let path = reach.render_path(table, &reach.shard_parent, id);
                let sym = &table.fns[id];
                let fi = file_idx_of[sym.path.as_str()];
                findings.push(Finding {
                    rule: Rule::ShardIsolation,
                    path: sym.path.clone(),
                    line: sym.line,
                    message: format!(
                        "driver-only fn `{name}` is reachable from a shard-context entry \
                         (call path: {path}); cross-shard writes must stay in the driver's \
                         merge"
                    ),
                    excerpt: excerpt(table, fi, sym.line),
                });
            }
        }
    }
    // (2) Bare-`tel` telemetry mutation inside shard-context bodies. The
    // blessed sink is the shard's own field (`shard.tel.count_*` /
    // `self.tel.count_*`) — recognized by the `.` before `tel`.
    for id in 0..table.fns.len() {
        if !reach.shard[id] || table.fns[id].is_test {
            continue;
        }
        let sym = &table.fns[id];
        let fi = file_idx_of[sym.path.as_str()];
        let toks = &table.files[fi].lexed.tokens;
        let (start, end) = sym.body;
        let mut i = start;
        while i + 2 < end.min(toks.len()) {
            let bare_tel = toks[i].text == "tel"
                && (i == 0 || toks[i - 1].text != ".")
                && toks[i + 1].text == ".";
            if bare_tel {
                let m = toks[i + 2].text.as_str();
                if m.starts_with("count_") || m == "stop" || m == "start" {
                    findings.push(Finding {
                        rule: Rule::ShardIsolation,
                        path: sym.path.clone(),
                        line: toks[i].line,
                        message: format!(
                            "shard-context fn `{}` writes driver-global telemetry \
                             (`tel.{m}`); route through the per-shard sink (`shard.tel`) \
                             and let the driver merge it",
                            sym.name
                        ),
                        excerpt: excerpt(table, fi, toks[i].line),
                    });
                }
            }
            i += 1;
        }
    }
}

/// Dead-counter: every counter field declared in the telemetry file must
/// be incremented by some telemetry method that production code (non-test,
/// outside the telemetry file) transitively calls.
fn dead_counters(table: &SymbolTable, graph: &CallGraph, findings: &mut Vec<Finding>) {
    let Some(tel_fi) = table
        .files
        .iter()
        .position(|f| f.basename == TELEMETRY_FILE)
    else {
        return; // workspace (or fixture) without a telemetry module
    };
    let tel_file = &table.files[tel_fi];
    let toks = &tel_file.lexed.tokens;
    let n = toks.len();

    // Which counter fields are declared in this telemetry file at all.
    let declared: BTreeSet<&str> = COUNTER_FIELDS
        .iter()
        .copied()
        .filter(|f| toks.iter().any(|t| t.text == *f))
        .collect();

    // Field → incrementor fns: telemetry fns whose body contains
    // `field +=` or `field[…] +=` (the indexed form covers phase_ns).
    let mut incrementors: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
    for &id in &table.fns_of_file[tel_fi] {
        if table.fns[id].is_test {
            continue;
        }
        let (start, end) = table.fns[id].body;
        let mut i = start;
        while i < end.min(n) {
            if toks[i].kind == crate::lexer::Kind::Ident {
                if let Some(&field) = declared.iter().find(|f| **f == toks[i].text) {
                    let mut j = i + 1;
                    if j < n && toks[j].text == "[" {
                        let mut depth = 1i32;
                        j += 1;
                        while j < n && depth > 0 {
                            match toks[j].text.as_str() {
                                "[" => depth += 1,
                                "]" => depth -= 1,
                                _ => {}
                            }
                            j += 1;
                        }
                    }
                    if j < n && toks[j].text == "+=" {
                        incrementors.entry(field).or_default().push(id);
                    }
                }
            }
            i += 1;
        }
    }

    // An incrementor is live if some non-test fn outside the telemetry
    // file transitively calls it (reverse-BFS over the caller index).
    let mut live_cache: BTreeMap<FnId, bool> = BTreeMap::new();
    let mut is_live = |id: FnId| -> bool {
        if let Some(&v) = live_cache.get(&id) {
            return v;
        }
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([id]);
        let mut live = false;
        while let Some(f) = queue.pop_front() {
            if !seen.insert(f) {
                continue;
            }
            let sym = &table.fns[f];
            if sym.basename != TELEMETRY_FILE && !sym.is_test {
                live = true;
                break;
            }
            for &c in &graph.callers[f] {
                queue.push_back(c);
            }
        }
        live_cache.insert(id, live);
        live
    };

    for &field in &declared {
        let incs = incrementors.get(field).map(|v| v.as_slice()).unwrap_or(&[]);
        let alive = incs.iter().any(|&id| is_live(id));
        if alive {
            continue;
        }
        // Attribute to the field's declaration (first `field :` token).
        let line = (0..n)
            .find(|&i| toks[i].text == field && toks.get(i + 1).is_some_and(|t| t.text == ":"))
            .map(|i| toks[i].line)
            .unwrap_or(1);
        let message = if incs.is_empty() {
            format!("dead counter: `{field}` has no increment site in {TELEMETRY_FILE}")
        } else {
            let apis: Vec<&str> = incs
                .iter()
                .map(|&id| table.fns[id].name.as_str())
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            format!(
                "dead counter: `{field}` is incremented only by `{}`, which has no \
                 production call site outside {TELEMETRY_FILE}; wire the event or delete \
                 the counter",
                apis.join("`/`")
            )
        };
        findings.push(Finding {
            rule: Rule::DeadCounter,
            path: tel_file.path.clone(),
            line,
            message,
            excerpt: excerpt(table, tel_fi, line),
        });
    }
}

/// Render the derived hot set as machine-readable JSON so CI can archive
/// it and diff hot-set growth across PRs. Deterministic: nodes and edges
/// are sorted by label.
pub fn render_graph_json(analysis: &Analysis) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let t = &analysis.table;
    let label = |id: FnId| -> String {
        let sym = &t.fns[id];
        match &sym.owner {
            Some(o) => format!("{}::{}::{}", sym.basename, o, sym.name),
            None => format!("{}::{}", sym.basename, sym.name),
        }
    };
    let kind_str = |k: EntryKind| match k {
        EntryKind::Step => "step",
        EntryKind::ShardContext => "shard-context",
        EntryKind::Net => "net",
    };

    let mut out = String::from("{\n  \"schema\": \"anton2-lint-graph/v1\",\n");

    out.push_str("  \"entry_points\": [\n");
    let mut entries: Vec<String> = analysis
        .reach
        .entries
        .iter()
        .map(|e| {
            format!(
                "    {{\"fn\": \"{}\", \"kind\": \"{}\"}}",
                esc(&label(e.id)),
                kind_str(e.kind)
            )
        })
        .collect();
    entries.sort();
    entries.dedup();
    out.push_str(&entries.join(",\n"));
    out.push_str("\n  ],\n");

    let hot_ids: Vec<FnId> = {
        let mut ids: Vec<FnId> = (0..t.fns.len())
            .filter(|&f| analysis.reach.hot[f])
            .collect();
        ids.sort_by_key(|&f| label(f));
        ids
    };
    out.push_str("  \"hot_fns\": [\n");
    let nodes: Vec<String> = hot_ids
        .iter()
        .map(|&f| {
            let sym = &t.fns[f];
            format!(
                "    {{\"fn\": \"{}\", \"path\": \"{}\", \"line\": {}, \"shard\": {}, \"tainted\": {}}}",
                esc(&label(f)),
                esc(&sym.path),
                sym.line,
                analysis.reach.shard[f],
                analysis.reach.tainted[f]
            )
        })
        .collect();
    out.push_str(&nodes.join(",\n"));
    out.push_str("\n  ],\n");

    let mut edges: Vec<String> = Vec::new();
    for &f in &hot_ids {
        for &c in &analysis.graph.callees[f] {
            if analysis.reach.hot[c] {
                edges.push(format!(
                    "    [\"{}\", \"{}\"]",
                    esc(&label(f)),
                    esc(&label(c))
                ));
            }
        }
    }
    edges.sort();
    edges.dedup();
    out.push_str("  \"edges\": [\n");
    out.push_str(&edges.join(",\n"));
    out.push_str("\n  ],\n");

    let mut unknown: Vec<String> = analysis
        .graph
        .unknown
        .iter()
        .filter(|u| analysis.reach.hot[u.caller])
        .map(|u| {
            format!(
                "    {{\"caller\": \"{}\", \"callee\": \"{}\", \"line\": {}}}",
                esc(&label(u.caller)),
                esc(&u.name),
                u.line
            )
        })
        .collect();
    unknown.sort();
    unknown.dedup();
    out.push_str("  \"unknown_calls\": [\n");
    out.push_str(&unknown.join(",\n"));
    out.push_str("\n  ],\n");

    out.push_str(&format!(
        "  \"hot_count\": {},\n  \"fn_count\": {}\n}}\n",
        hot_ids.len(),
        t.fns.len()
    ));
    out
}
