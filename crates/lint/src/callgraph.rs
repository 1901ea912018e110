//! Phase 1b: an intra-workspace call graph over the symbol table.
//!
//! Call sites are recognized syntactically and resolved **conservatively**
//! — when several same-name definitions exist, edges go to *all* of them,
//! so the derived hot set is a superset of the true one (safe for rules
//! that forbid things in hot code). The heuristics, in order:
//!
//! * `self.name(…)` inside an `impl Owner` block prefers `(Owner, name)`
//!   candidates when any exist; otherwise falls back to every *method*
//!   definition of `name`.
//! * `recv.name(…)` (any other receiver) takes every non-test **method**
//!   definition of `name` in the workspace (a method call cannot invoke a
//!   free fn). A method name defined nowhere in the workspace is a std/ext
//!   call — *external*, not an edge.
//! * `Type::name(…)` resolves to `(Type, name)` exactly; `Self::name(…)`
//!   uses the enclosing impl owner. An uppercase qualifier with no
//!   matching impl names foreign code (`Vec::new`, `f64::sqrt`) —
//!   external, **no** name-wide fallback: falling back here would route
//!   every `Vec::new()` in the tree to every workspace `new()` and drown
//!   the hot set. A *lowercase* qualifier is a module path
//!   (`fixedpoint::add`) and falls back to the free fns named `name`.
//! * `name(…)` (free call) takes every **free** definition of `name`,
//!   preferring same-file candidates when any exist. A *lowercase* free
//!   call that resolves to nothing is the one genuinely opaque case — it
//!   may be a closure variable or a function pointer — and becomes an edge
//!   to the **unknown node**, which taints every caller that reaches it
//!   (see [`crate::reach`]). Uppercase unresolved free calls are
//!   tuple-struct or enum-variant constructors and are treated as
//!   external.
//! * A bare identifier in argument position (`(name,` / `, name)`) that
//!   names a same-file fn is a callback pass (`.map(min_image)`) and gets
//!   an edge — the callee will run even though no paren follows.
//!
//! Macro invocations (`name!(…)`) are not call edges; the zero-alloc and
//! panic-freedom rules inspect them textually instead.

use crate::lexer::Kind;
use crate::symbols::{FnId, SymbolTable};

/// An unresolved lowercase free call: `(caller, callee name, line)`.
#[derive(Clone, Debug)]
pub struct UnknownCall {
    pub caller: FnId,
    pub name: String,
    pub line: u32,
}

/// The workspace call graph. Indexed by [`FnId`]; only non-test functions
/// get out-edges (test code is exempt from hot-set rules, so its calls
/// must not pull symbols into the hot set).
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Out-edges, deduplicated and sorted.
    pub callees: Vec<Vec<FnId>>,
    /// In-edges (derived from `callees`).
    pub callers: Vec<Vec<FnId>>,
    /// Edges to the unknown node.
    pub unknown: Vec<UnknownCall>,
}

/// Rust keywords and call-like forms that are never call sites.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "else", "while", "for", "in", "loop", "match", "return", "break", "continue", "fn",
    "let", "mut", "ref", "move", "as", "where", "impl", "pub", "use", "mod", "struct", "enum",
    "trait", "type", "const", "static", "crate", "super", "self", "Self", "dyn", "unsafe", "async",
    "await", "box", "yield",
];

impl CallGraph {
    /// Build the graph from the symbol table.
    pub fn build(table: &SymbolTable) -> CallGraph {
        let nfns = table.fns.len();
        let mut g = CallGraph {
            callees: vec![Vec::new(); nfns],
            callers: vec![Vec::new(); nfns],
            unknown: Vec::new(),
        };
        for (file_idx, fn_ids) in table.fns_of_file.iter().enumerate() {
            let file = &table.files[file_idx];
            for &id in fn_ids {
                let sym = &table.fns[id];
                if sym.is_test {
                    continue;
                }
                extract_calls(table, file_idx, id, &mut g);
                let _ = &file.path; // file borrowed above for clarity only
            }
        }
        for v in &mut g.callees {
            v.sort_unstable();
            v.dedup();
        }
        for (caller, callees) in g.callees.iter().enumerate() {
            for &callee in callees {
                g.callers[callee].push(caller);
            }
        }
        for v in &mut g.callers {
            v.sort_unstable();
            v.dedup();
        }
        g
    }

    /// Functions with at least one edge to the unknown node.
    pub fn directly_tainted(&self, nfns: usize) -> Vec<bool> {
        let mut t = vec![false; nfns];
        for u in &self.unknown {
            t[u.caller] = true;
        }
        t
    }
}

/// Scan one fn body for call sites and append edges.
fn extract_calls(table: &SymbolTable, file_idx: usize, caller: FnId, g: &mut CallGraph) {
    let file = &table.files[file_idx];
    let toks = &file.lexed.tokens;
    let n = toks.len();
    let (start, end) = table.fns[caller].body;
    let owner = table.fns[caller].owner.clone();
    // Nested fns get their own node; don't double-attribute their calls.
    // (A nested fn's body is a sub-span of ours; skip those sub-spans.)
    let nested: Vec<(usize, usize)> = table.fns_of_file[file_idx]
        .iter()
        .filter(|&&other| other != caller)
        .map(|&other| table.fns[other].body)
        .filter(|(s, e)| *s > start && *e <= end)
        .collect();
    let in_nested = |i: usize| nested.iter().any(|(s, e)| (*s..*e).contains(&i));

    let mut i = start;
    while i < end.min(n) {
        if in_nested(i) {
            i += 1;
            continue;
        }
        let t = &toks[i];
        if t.kind != Kind::Ident || NON_CALL_IDENTS.contains(&t.text.as_str()) {
            // `self.name(` and `Self::name(` start at a skipped ident; the
            // match below looks backward from `name`, so nothing is lost.
            i += 1;
            continue;
        }
        let next = toks.get(i + 1).map(|t| t.text.as_str()).unwrap_or("");
        let prev = if i > start {
            toks.get(i - 1).map(|t| t.text.as_str()).unwrap_or("")
        } else {
            ""
        };

        if next == "(" {
            if prev == "." {
                resolve_method(table, caller, &owner, toks, i, g);
            } else if prev == "::" {
                resolve_qualified(table, caller, &owner, toks, i, g);
            } else {
                resolve_free(table, caller, file_idx, toks, i, g);
            }
        } else if (next == "," || next == ")") && (prev == "(" || prev == ",") {
            // Bare fn reference in argument position: same-file fns only
            // (the documented callback heuristic; cross-file fn values are
            // rare and would need type knowledge we don't have).
            for id in table.resolve_manifest(&file.basename, &t.text) {
                g.callees[caller].push(id);
            }
        }
        i += 1;
    }
}

/// `.name(` — receiver method call.
fn resolve_method(
    table: &SymbolTable,
    caller: FnId,
    owner: &Option<String>,
    toks: &[crate::lexer::Tok],
    i: usize,
    g: &mut CallGraph,
) {
    let name = &toks[i].text;
    // `self.name(` prefers the enclosing impl's own method.
    let recv_is_self = i >= 2 && toks[i - 2].text == "self";
    if recv_is_self {
        if let Some(o) = owner {
            if let Some(ids) = table.by_owner.get(&(o.clone(), name.clone())) {
                g.callees[caller].extend(ids.iter().copied());
                return;
            }
        }
    }
    if let Some(ids) = table.by_name.get(name) {
        // A method call cannot invoke a free fn: methods only.
        g.callees[caller].extend(
            ids.iter()
                .copied()
                .filter(|&id| table.fns[id].owner.is_some()),
        );
    }
    // Unresolved method names are std/ext calls: external, not unknown.
}

/// `Path::name(` — qualified call; owner is the segment before `::`.
fn resolve_qualified(
    table: &SymbolTable,
    caller: FnId,
    owner: &Option<String>,
    toks: &[crate::lexer::Tok],
    i: usize,
    g: &mut CallGraph,
) {
    let name = &toks[i].text;
    let qual = if i >= 2 {
        toks[i - 2].text.as_str()
    } else {
        ""
    };
    let qual_owner = if qual == "Self" {
        owner.clone()
    } else {
        Some(qual.to_string())
    };
    if let Some(o) = &qual_owner {
        if let Some(ids) = table.by_owner.get(&(o.clone(), name.clone())) {
            g.callees[caller].extend(ids.iter().copied());
            return;
        }
    }
    // A lowercase qualifier is a module path (`fixedpoint::add`): resolve
    // to the free fns of that name. An uppercase qualifier with no
    // matching impl is a foreign type (`Vec::new`, `f64::sqrt`) —
    // external; a name-wide fallback here would connect every foreign
    // constructor call to every same-named workspace fn.
    if qual.chars().next().is_some_and(|c| c.is_lowercase()) {
        if let Some(ids) = table.by_name.get(name) {
            g.callees[caller].extend(
                ids.iter()
                    .copied()
                    .filter(|&id| table.fns[id].owner.is_none()),
            );
        }
    }
}

/// `name(` — free call (no `.`/`::` before it).
fn resolve_free(
    table: &SymbolTable,
    caller: FnId,
    file_idx: usize,
    toks: &[crate::lexer::Tok],
    i: usize,
    g: &mut CallGraph,
) {
    let name = &toks[i].text;
    // A bare call resolves to free fns only (methods need `self.`/`recv.`
    // and associated fns need `Type::`).
    let free: Vec<FnId> = table
        .by_name
        .get(name)
        .map(|ids| {
            ids.iter()
                .copied()
                .filter(|&id| table.fns[id].owner.is_none())
                .collect()
        })
        .unwrap_or_default();
    if !free.is_empty() {
        // Prefer same-file definitions when the name is ambiguous.
        let same_file: Vec<FnId> = free
            .iter()
            .copied()
            .filter(|&id| table.fns[id].path == table.files[file_idx].path)
            .collect();
        if !same_file.is_empty() {
            g.callees[caller].extend(same_file);
        } else {
            g.callees[caller].extend(free);
        }
        return;
    }
    // Unresolved: uppercase initial → tuple-struct/variant constructor
    // (external); lowercase → closure/fn-pointer call we cannot see
    // through → unknown node.
    if name.chars().next().is_some_and(|c| c.is_lowercase()) {
        g.unknown.push(UnknownCall {
            caller,
            name: name.clone(),
            line: toks[i].line,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::SymbolTable;

    fn graph(files: &[(&str, &str)]) -> (SymbolTable, CallGraph) {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        let t = SymbolTable::build(&sources);
        let g = CallGraph::build(&t);
        (t, g)
    }

    fn id(t: &SymbolTable, name: &str) -> FnId {
        t.fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn free_call_resolves_cross_file() {
        let (t, g) = graph(&[
            ("crates/a/src/x.rs", "pub fn helper() {}"),
            ("crates/a/src/y.rs", "pub fn hot() { helper(); }"),
        ]);
        assert_eq!(g.callees[id(&t, "hot")], vec![id(&t, "helper")]);
        assert!(g.unknown.is_empty());
    }

    #[test]
    fn self_method_prefers_own_impl() {
        let (t, g) = graph(&[(
            "crates/a/src/x.rs",
            "struct A; struct B;\n\
             impl A { fn go(&self) { self.step(); } fn step(&self) {} }\n\
             impl B { fn step(&self) {} }\n",
        )]);
        let go = id(&t, "go");
        let a_step = t.by_owner[&("A".into(), "step".into())][0];
        assert_eq!(g.callees[go], vec![a_step]);
    }

    #[test]
    fn foreign_method_calls_are_external_not_unknown() {
        let (t, g) = graph(&[("crates/a/src/x.rs", "fn f(v: &[u32]) { v.iter(); }")]);
        assert!(g.callees[id(&t, "f")].is_empty());
        assert!(g.unknown.is_empty());
    }

    #[test]
    fn ambiguous_method_fans_out_to_all_candidates() {
        let (t, g) = graph(&[(
            "crates/a/src/x.rs",
            "struct A; struct B;\n\
             impl A { fn step(&self) {} }\n\
             impl B { fn step(&self) {} }\n\
             fn drive(x: &A) { x.step(); }\n",
        )]);
        assert_eq!(g.callees[id(&t, "drive")].len(), 2);
    }

    #[test]
    fn qualified_call_prefers_owner() {
        let (t, g) = graph(&[(
            "crates/a/src/x.rs",
            "struct A; struct B;\n\
             impl A { fn make() {} }\n\
             impl B { fn make() {} }\n\
             fn f() { A::make(); }\n",
        )]);
        let a_make = t.by_owner[&("A".into(), "make".into())][0];
        assert_eq!(g.callees[id(&t, "f")], vec![a_make]);
    }

    #[test]
    fn unresolved_lowercase_free_call_is_unknown() {
        let (t, g) = graph(&[(
            "crates/a/src/x.rs",
            "fn f(cb: impl Fn()) { cb(); Some(3); }",
        )]);
        assert!(g.callees[id(&t, "f")].is_empty());
        assert_eq!(g.unknown.len(), 1);
        assert_eq!(g.unknown[0].name, "cb");
        assert!(g.directly_tainted(t.fns.len())[id(&t, "f")]);
    }

    #[test]
    fn callback_argument_gets_edge() {
        let (t, g) = graph(&[(
            "crates/a/src/x.rs",
            "fn worker() {}\nfn f(v: &[u32]) { v.iter().map(worker); }\n",
        )]);
        assert_eq!(g.callees[id(&t, "f")], vec![id(&t, "worker")]);
    }

    #[test]
    fn test_code_creates_no_edges() {
        let (t, g) = graph(&[(
            "crates/a/src/x.rs",
            "fn helper() {}\n#[cfg(test)]\nmod t { fn case() { super::helper(); } }\n",
        )]);
        assert!(g.callers[id(&t, "helper")].is_empty());
    }

    #[test]
    fn nested_fn_calls_attribute_to_inner_node() {
        let (t, g) = graph(&[(
            "crates/a/src/x.rs",
            "fn leaf() {}\nfn outer() { fn inner() { leaf(); } inner(); }\n",
        )]);
        let outer = id(&t, "outer");
        let inner = id(&t, "inner");
        assert_eq!(g.callees[outer], vec![inner]);
        assert_eq!(g.callees[inner], vec![id(&t, "leaf")]);
    }

    #[test]
    fn callers_index_inverts_callees() {
        let (t, g) = graph(&[(
            "crates/a/src/x.rs",
            "fn leaf() {}\nfn a() { leaf(); }\nfn b() { leaf(); }\n",
        )]);
        assert_eq!(g.callers[id(&t, "leaf")], vec![id(&t, "a"), id(&t, "b")]);
    }
}
