//! Phase 2a: transitive reachability from the declared entry points.
//!
//! The manifest no longer enumerates every hot function by hand — it
//! declares only the *roots* (the per-step phase implementations, the
//! exchange/evaluate/merge shard paths, the per-crossing network protocol,
//! and the deterministic-accumulation API), and the hot set is **derived**
//! by walking the call graph. A helper added to a hot function is hot from
//! the moment it is called; nothing needs manifest maintenance.
//!
//! Two reachable sets are computed:
//!
//! * **hot** — reachable from any entry point; the zero-alloc, nondet,
//!   float-reduction, and panic-freedom families apply here.
//! * **shard** — reachable from [`EntryKind::ShardContext`] entries only;
//!   the shard-isolation family applies here (shard-context code must not
//!   touch driver-global state — see DESIGN.md §16/§17).
//!
//! Every manifest entry (entry points, alloc exemptions, driver-only
//! denylist, reduction helpers) must resolve against the symbol table;
//! an entry that does not is a **hard error** ("manifest names unknown
//! symbol"), reported before any findings and exiting with status 2. This
//! is what turns silent manifest drift into a CI failure.

use crate::callgraph::CallGraph;
use crate::manifest::{EntryKind, ALLOC_EXEMPT, DRIVER_ONLY, ENTRY_POINTS, REDUCTION_HELPERS};
use crate::symbols::{FnId, FnSym, SymbolTable};
use std::collections::{BTreeSet, VecDeque};

/// The manifest lists, owned — the real workspace uses
/// [`Spec::workspace_default`]; fixture workspaces in the test suite
/// supply their own roots to exercise the analyzer in miniature.
#[derive(Clone, Debug, Default)]
pub struct Spec {
    pub entry_points: Vec<(String, String, EntryKind)>,
    pub alloc_exempt: Vec<(String, String)>,
    pub driver_only: Vec<(String, String)>,
    pub reduction_helpers: Vec<(String, String)>,
}

impl Spec {
    /// The real workspace manifest ([`crate::manifest`]).
    pub fn workspace_default() -> Spec {
        Spec {
            entry_points: ENTRY_POINTS
                .iter()
                .map(|(f, n, k)| (f.to_string(), n.to_string(), *k))
                .collect(),
            alloc_exempt: pairs(ALLOC_EXEMPT),
            driver_only: pairs(DRIVER_ONLY),
            reduction_helpers: pairs(REDUCTION_HELPERS),
        }
    }

    pub fn is_alloc_exempt(&self, sym: &FnSym) -> bool {
        names(&self.alloc_exempt, sym)
    }

    pub fn is_driver_only(&self, sym: &FnSym) -> bool {
        names(&self.driver_only, sym)
    }

    pub fn is_reduction_helper(&self, sym: &FnSym) -> bool {
        names(&self.reduction_helpers, sym)
    }
}

fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(f, n)| (f.to_string(), n.to_string()))
        .collect()
}

fn names(list: &[(String, String)], sym: &FnSym) -> bool {
    list.iter()
        .any(|(file, key)| *file == sym.basename && sym.matches_key(key))
}

/// One resolved entry point.
#[derive(Clone, Debug)]
pub struct Entry {
    pub id: FnId,
    pub kind: EntryKind,
}

/// The derived reachability facts for one workspace.
#[derive(Debug)]
pub struct Reachability {
    pub entries: Vec<Entry>,
    /// Reachable from any entry point.
    pub hot: Vec<bool>,
    /// Reachable from a `ShardContext` entry point.
    pub shard: Vec<bool>,
    /// BFS tree parent within the hot set (entry points have `None`).
    pub parent: Vec<Option<FnId>>,
    /// BFS tree parent within the shard set.
    pub shard_parent: Vec<Option<FnId>>,
    /// Transitively reaches an unknown (unresolvable) call.
    pub tainted: Vec<bool>,
}

impl Reachability {
    /// Resolve the manifest and walk the graph. `Err` carries one message
    /// per manifest entry that names an unknown symbol.
    pub fn compute(
        table: &SymbolTable,
        graph: &CallGraph,
        spec: &Spec,
    ) -> Result<Reachability, Vec<String>> {
        let errors = validate_manifest(table, spec);
        if !errors.is_empty() {
            return Err(errors);
        }
        let nfns = table.fns.len();
        let mut entries = Vec::new();
        for (file, name, kind) in &spec.entry_points {
            for id in table.resolve_manifest(file, name) {
                entries.push(Entry { id, kind: *kind });
            }
        }

        let (hot, parent) = bfs(graph, entries.iter().map(|e| e.id), nfns);
        let (shard, shard_parent) = bfs(
            graph,
            entries
                .iter()
                .filter(|e| e.kind == EntryKind::ShardContext)
                .map(|e| e.id),
            nfns,
        );

        // Taint flows callee → caller: start at every fn with a direct
        // unknown call and walk the reverse edges to fixpoint.
        let mut tainted = graph.directly_tainted(nfns);
        let mut queue: VecDeque<FnId> = (0..nfns).filter(|&f| tainted[f]).collect();
        while let Some(f) = queue.pop_front() {
            for &caller in &graph.callers[f] {
                if !tainted[caller] {
                    tainted[caller] = true;
                    queue.push_back(caller);
                }
            }
        }

        Ok(Reachability {
            entries,
            hot,
            shard,
            parent,
            shard_parent,
            tainted,
        })
    }

    /// The hot set as `(basename, fn name)` pairs — what the superset test
    /// compares against the legacy hand-written manifest.
    pub fn hot_pairs(&self, table: &SymbolTable) -> BTreeSet<(String, String)> {
        (0..table.fns.len())
            .filter(|&f| self.hot[f])
            .map(|f| (table.fns[f].basename.clone(), table.fns[f].name.clone()))
            .collect()
    }

    /// Entry-to-`id` call path through the BFS tree (entry first), for
    /// "reachable via …" diagnostics.
    pub fn path_to(&self, parents: &[Option<FnId>], id: FnId) -> Vec<FnId> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(p) = parents[cur] {
            path.push(p);
            cur = p;
            if path.len() > parents.len() {
                break; // cycle guard; BFS trees cannot cycle, belt and braces
            }
        }
        path.reverse();
        path
    }

    /// Render a call path as `entry -> … -> fn` using fn names.
    pub fn render_path(&self, table: &SymbolTable, parents: &[Option<FnId>], id: FnId) -> String {
        self.path_to(parents, id)
            .iter()
            .map(|&f| table.fns[f].name.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Breadth-first reachability with tree parents.
fn bfs(
    graph: &CallGraph,
    roots: impl Iterator<Item = FnId>,
    nfns: usize,
) -> (Vec<bool>, Vec<Option<FnId>>) {
    let mut seen = vec![false; nfns];
    let mut parent = vec![None; nfns];
    let mut queue = VecDeque::new();
    for r in roots {
        if !seen[r] {
            seen[r] = true;
            queue.push_back(r);
        }
    }
    while let Some(f) = queue.pop_front() {
        for &callee in &graph.callees[f] {
            if !seen[callee] {
                seen[callee] = true;
                parent[callee] = Some(f);
                queue.push_back(callee);
            }
        }
    }
    (seen, parent)
}

/// Check that every `(file, fn)` the manifest names resolves to at least
/// one non-test definition. Returns one message per unknown symbol.
pub fn validate_manifest(table: &SymbolTable, spec: &Spec) -> Vec<String> {
    let mut errors = Vec::new();
    let mut check = |list_name: &str, file: &str, name: &str| {
        if table.resolve_manifest(file, name).is_empty() {
            errors.push(format!(
                "manifest names unknown symbol: {list_name} entry (\"{file}\", \"{name}\") \
                 matches no non-test fn in the workspace (renamed or deleted?)"
            ));
        }
    };
    for (file, name, _) in &spec.entry_points {
        check("ENTRY_POINTS", file, name);
    }
    for (file, name) in &spec.alloc_exempt {
        check("ALLOC_EXEMPT", file, name);
    }
    for (file, name) in &spec.driver_only {
        check("DRIVER_ONLY", file, name);
    }
    for (file, name) in &spec.reduction_helpers {
        check("REDUCTION_HELPERS", file, name);
    }
    // A bare exemption would cover every same-named fn in the file — one
    // setup constructor's exemption silencing a hot `new` beside it — so an
    // exemption of a method names the method's owner.
    for (file, name) in spec.alloc_exempt.iter().filter(|(_, n)| !n.contains("::")) {
        let owners: BTreeSet<&str> = table
            .resolve_manifest(file, name)
            .into_iter()
            .filter_map(|id| table.fns[id].owner.as_deref())
            .collect();
        if !owners.is_empty() {
            let owners: Vec<&str> = owners.into_iter().collect();
            errors.push(format!(
                "manifest names an unqualified method: ALLOC_EXEMPT entry (\"{file}\", \"{name}\") \
                 matches methods of {}; key it as \"Owner::{name}\"",
                owners.join(", ")
            ));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::symbols::SymbolTable;

    /// A miniature workspace whose file/fn names satisfy the real manifest
    /// is impractical here; these tests drive `bfs`/taint directly and
    /// leave manifest resolution to the fixture-crate integration tests.
    fn setup(files: &[(&str, &str)]) -> (SymbolTable, CallGraph) {
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
    fn bfs_reaches_transitively_and_records_parents() {
        let (t, g) = setup(&[(
            "crates/a/src/x.rs",
            "fn leaf() {}\nfn mid() { leaf(); }\nfn entry() { mid(); }\nfn cold() { leaf(); }\n",
        )]);
        let (seen, parent) = bfs(&g, [id(&t, "entry")].into_iter(), t.fns.len());
        assert!(seen[id(&t, "entry")] && seen[id(&t, "mid")] && seen[id(&t, "leaf")]);
        assert!(!seen[id(&t, "cold")]);
        assert_eq!(parent[id(&t, "leaf")], Some(id(&t, "mid")));
        assert_eq!(parent[id(&t, "entry")], None);
    }

    #[test]
    fn taint_propagates_to_transitive_callers() {
        let (t, g) = setup(&[(
            "crates/a/src/x.rs",
            "fn opaque(cb: impl Fn()) { cb(); }\n\
             fn mid(cb: impl Fn()) { opaque(cb); }\n\
             fn top(cb: impl Fn()) { mid(cb); }\n\
             fn clean() {}\n",
        )]);
        let nfns = t.fns.len();
        let mut tainted = g.directly_tainted(nfns);
        let mut queue: std::collections::VecDeque<FnId> =
            (0..nfns).filter(|&f| tainted[f]).collect();
        while let Some(f) = queue.pop_front() {
            for &caller in &g.callers[f] {
                if !tainted[caller] {
                    tainted[caller] = true;
                    queue.push_back(caller);
                }
            }
        }
        assert!(tainted[id(&t, "opaque")]);
        assert!(tainted[id(&t, "mid")]);
        assert!(tainted[id(&t, "top")]);
        assert!(!tainted[id(&t, "clean")]);
    }

    #[test]
    fn cycles_terminate() {
        let (t, g) = setup(&[("crates/a/src/x.rs", "fn a() { b(); }\nfn b() { a(); }\n")]);
        let (seen, _) = bfs(&g, [id(&t, "a")].into_iter(), t.fns.len());
        assert!(seen[id(&t, "a")] && seen[id(&t, "b")]);
    }
}
