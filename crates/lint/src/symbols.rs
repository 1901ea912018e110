//! Phase 1a of the whole-workspace analyzer: a lightweight symbol table.
//!
//! Every first-party `.rs` file is lexed once and its function definitions
//! are collected into [`FnSym`] records: name, impl-block owner (the type
//! an `impl` block is for, if any), module path (derived from the file
//! path), body token span, and whether the definition sits inside a
//! `#[cfg(test)]` region. The table is the ground truth both for call
//! resolution ([`crate::callgraph`]) and for the hard "manifest names
//! unknown symbol" check: an entry-point manifest entry that resolves to
//! nothing is a drift error, not a silent no-op.
//!
//! The parser is the same hand-rolled token walk the per-file rules use —
//! no `syn` — so its limits are explicit: nested functions are attributed
//! to the file (their enclosing fn's span contains them, which is exactly
//! what reachability wants), and `impl` owners are the *last path segment*
//! of the implemented type with generics stripped (`impl<T> Foo<T>` owns
//! `Foo`; `impl fmt::Display for Bar` owns `Bar`).

use crate::lexer::{lex, Kind, Lexed};
use std::collections::BTreeMap;

/// Index of a function in [`SymbolTable::fns`].
pub type FnId = usize;

/// One function definition.
#[derive(Clone, Debug)]
pub struct FnSym {
    /// Function name as written.
    pub name: String,
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// File basename (`stream.rs`) — manifests key on this.
    pub basename: String,
    /// Module path derived from the file location (`anton2_md::stream`).
    pub module: String,
    /// Owning type if defined in an `impl` block (`NonbondedStream`).
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token span of the body, `[open_brace, past_close_brace)`, indices
    /// into the file's token stream.
    pub body: (usize, usize),
    /// Defined inside a `#[cfg(test)]` region (exempt from hot-set rules
    /// and never a call-resolution candidate for non-test code).
    pub is_test: bool,
}

/// One lexed file, retained so later passes scan each file exactly once.
#[derive(Debug)]
pub struct FileEntry {
    pub path: String,
    pub basename: String,
    pub lexed: Lexed,
    /// Per-token `#[cfg(test)]` flags, parallel to `lexed.tokens`.
    pub in_test: Vec<bool>,
    /// Source lines (for finding excerpts).
    pub lines: Vec<String>,
}

/// The workspace symbol table: all files, all functions, and the indexes
/// call resolution needs.
#[derive(Debug, Default)]
pub struct SymbolTable {
    pub files: Vec<FileEntry>,
    pub fns: Vec<FnSym>,
    /// All non-test definitions by bare name.
    pub by_name: BTreeMap<String, Vec<FnId>>,
    /// All non-test definitions by `(owner, name)`.
    pub by_owner: BTreeMap<(String, String), Vec<FnId>>,
    /// All non-test definitions by `(basename, name)` — manifest keys.
    pub by_file: BTreeMap<(String, String), Vec<FnId>>,
    /// Function ids defined in each file, in source order.
    pub fns_of_file: Vec<Vec<FnId>>,
}

impl SymbolTable {
    /// Build the table from `(path, source)` pairs. Paths should be
    /// workspace-relative with `/` separators.
    pub fn build(sources: &[(String, String)]) -> SymbolTable {
        let mut table = SymbolTable::default();
        for (path, source) in sources {
            let lexed = lex(source);
            let in_test = test_regions(&lexed);
            let basename = path.rsplit('/').next().unwrap_or(path).to_string();
            let file_idx = table.files.len();
            let fns = parse_fns(&lexed, &in_test);
            let module = module_path(path);
            let mut ids = Vec::with_capacity(fns.len());
            for p in fns {
                let id = table.fns.len();
                let sym = FnSym {
                    name: p.name,
                    path: path.clone(),
                    basename: basename.clone(),
                    module: module.clone(),
                    owner: p.owner,
                    line: p.line,
                    body: p.body,
                    is_test: p.is_test,
                };
                if !sym.is_test {
                    table.by_name.entry(sym.name.clone()).or_default().push(id);
                    if let Some(o) = &sym.owner {
                        table
                            .by_owner
                            .entry((o.clone(), sym.name.clone()))
                            .or_default()
                            .push(id);
                    }
                    table
                        .by_file
                        .entry((basename.clone(), sym.name.clone()))
                        .or_default()
                        .push(id);
                }
                table.fns.push(sym);
                ids.push(id);
            }
            table.files.push(FileEntry {
                path: path.clone(),
                basename,
                lexed,
                in_test,
                lines: source.lines().map(|l| l.to_string()).collect(),
            });
            table.fns_of_file.push(ids);
            debug_assert_eq!(table.files.len(), file_idx + 1);
        }
        table
    }

    /// The file index a function belongs to.
    pub fn file_of(&self, id: FnId) -> usize {
        self.files
            .iter()
            .position(|f| f.path == self.fns[id].path)
            .expect("fn path always names a table file")
    }

    /// Resolve a manifest `(basename, key)` entry to its non-test
    /// definitions; see [`key_matches`] for the key forms.
    pub fn resolve_manifest(&self, basename: &str, key: &str) -> Vec<FnId> {
        let name = key.split_once("::").map_or(key, |(_, name)| name);
        self.by_file
            .get(&(basename.to_string(), name.to_string()))
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| self.fns[id].matches_key(key))
                    .collect()
            })
            .unwrap_or_default()
    }
}

impl FnSym {
    /// Does a manifest key name this function? See [`key_matches`].
    pub fn matches_key(&self, key: &str) -> bool {
        key_matches(key, self.owner.as_deref(), &self.name)
    }
}

/// A manifest key names functions within one file: `Owner::name` names
/// only the `name` defined in an `impl` block for `Owner`; a bare `name`
/// names every same-named function in the file, whatever its owner.
pub fn key_matches(key: &str, owner: Option<&str>, name: &str) -> bool {
    match key.split_once("::") {
        Some((o, n)) => owner == Some(o) && n == name,
        None => key == name,
    }
}

/// `crates/md/src/stream.rs` → `anton2_md::stream` (best effort — used
/// only for reporting, never for resolution).
fn module_path(path: &str) -> String {
    let parts: Vec<&str> = path.split('/').collect();
    let stem = parts
        .last()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("");
    let krate = if parts.first() == Some(&"crates") && parts.len() > 1 {
        format!("anton2_{}", parts[1])
    } else {
        "anton2".to_string()
    };
    match stem {
        "lib" | "main" | "mod" => krate,
        _ => format!("{krate}::{stem}"),
    }
}

pub(crate) struct ParsedFn {
    pub(crate) name: String,
    pub(crate) owner: Option<String>,
    pub(crate) line: u32,
    pub(crate) body: (usize, usize),
    pub(crate) is_test: bool,
}

/// Walk the token stream, tracking `impl` blocks, and emit every `fn` with
/// a body. The walk enters bodies (nested fns are found too); an inner fn
/// inherits the `impl` owner only if it is directly inside the impl's
/// brace depth, which the depth bookkeeping below tracks exactly.
pub(crate) fn parse_fns(lexed: &Lexed, in_test: &[bool]) -> Vec<ParsedFn> {
    let toks = &lexed.tokens;
    let n = toks.len();
    let mut out = Vec::new();
    // Stack of (brace_depth_when_opened, owner) for impl blocks.
    let mut impl_stack: Vec<(i32, String)> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < n {
        let t = &toks[i];
        match t.text.as_str() {
            "{" => {
                depth += 1;
                i += 1;
            }
            "}" => {
                depth -= 1;
                if let Some((d, _)) = impl_stack.last() {
                    if depth < *d {
                        impl_stack.pop();
                    }
                }
                i += 1;
            }
            "impl" if t.kind == Kind::Ident => {
                if let Some((owner, open)) = parse_impl_owner(toks, i) {
                    // Owner scope opens at the impl block's brace.
                    impl_stack.push((depth + 1, owner));
                    // Do not skip the body: fns inside are parsed with the
                    // owner on the stack. Jump to the open brace itself.
                    i = open;
                } else {
                    i += 1;
                }
            }
            "fn" if t.kind == Kind::Ident => {
                if i + 1 < n && toks[i + 1].kind == Kind::Ident {
                    let name = toks[i + 1].text.clone();
                    if let Some((open, close)) = body_span(toks, i + 2) {
                        let owner = impl_stack
                            .iter()
                            .rev()
                            .find(|(d, _)| depth + 1 >= *d)
                            .map(|(_, o)| o.clone());
                        out.push(ParsedFn {
                            name,
                            owner,
                            line: t.line,
                            body: (open, close),
                            is_test: in_test.get(i).copied().unwrap_or(false),
                        });
                        // Step past the signature only: the body is walked
                        // normally so nested fns and impl depth stay exact.
                        i += 2;
                        continue;
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    out
}

/// From `impl` at `i`, extract the owning type's last path segment and the
/// index of the block's `{`. Handles `impl<T> Type<T>`, `impl Trait for
/// Type`, and `impl<T> Trait<T> for path::Type<T>`. Returns `None` for
/// bodiless forms (`impl Trait for Type;` never occurs in current Rust,
/// but a missing `{` before `;` is treated as malformed and skipped).
fn parse_impl_owner(toks: &[crate::lexer::Tok], i: usize) -> Option<(String, usize)> {
    let n = toks.len();
    let mut j = i + 1;
    // Skip generic params `<...>` with nesting.
    j = skip_generics(toks, j);
    // Collect the first type path; if a `for` follows, the real owner is
    // the second path.
    let (mut owner, mut k) = read_type_path(toks, j)?;
    if k < n && toks[k].text == "for" && toks[k].kind == Kind::Ident {
        let (o2, k2) = read_type_path(toks, k + 1)?;
        owner = o2;
        k = k2;
    }
    // Skip a where clause: scan to the opening brace.
    while k < n && toks[k].text != "{" {
        if toks[k].text == ";" {
            return None;
        }
        k += 1;
    }
    if k >= n {
        return None;
    }
    Some((owner, k))
}

/// Read a (possibly qualified, possibly generic) type path starting at
/// `j`; return its last segment and the index just past it.
fn read_type_path(toks: &[crate::lexer::Tok], mut j: usize) -> Option<(String, usize)> {
    let n = toks.len();
    // Leading `&`/`mut`/`dyn` noise.
    while j < n && matches!(toks[j].text.as_str(), "&" | "mut" | "dyn") {
        j += 1;
    }
    let mut last = None;
    loop {
        if j >= n || toks[j].kind != Kind::Ident {
            break;
        }
        last = Some(toks[j].text.clone());
        j += 1;
        j = skip_generics(toks, j);
        if j < n && toks[j].text == "::" {
            j += 1;
        } else {
            break;
        }
    }
    last.map(|l| (l, j))
}

/// If `j` sits on `<`, skip the balanced generic-argument list.
fn skip_generics(toks: &[crate::lexer::Tok], mut j: usize) -> usize {
    let n = toks.len();
    if j >= n || toks[j].text != "<" {
        return j;
    }
    let mut depth = 0i32;
    while j < n {
        match toks[j].text.as_str() {
            "<" => depth += 1,
            ">" | ">>" => {
                depth -= if toks[j].text == ">>" { 2 } else { 1 };
                if depth <= 0 {
                    return j + 1;
                }
            }
            // A `(` or `{` here means this `<` was a comparison, not
            // generics; bail out where we started scanning.
            ";" | "{" => return j,
            _ => {}
        }
        j += 1;
    }
    j
}

/// Find a fn body's brace span starting the scan at `from` (just past the
/// fn name): the first `{` before a `;` opens the body.
fn body_span(toks: &[crate::lexer::Tok], from: usize) -> Option<(usize, usize)> {
    let n = toks.len();
    let mut j = from;
    // The parameter list may contain braces only inside closures with
    // blocks, which cannot appear in a signature; `;` ends a bodiless decl
    // — but only outside parens *and* brackets: array types in signatures
    // (`-> [usize; 27]`, `out: &mut [f64; 8]`) contain semicolons too.
    let mut paren = 0i32;
    let mut bracket = 0i32;
    while j < n {
        match toks[j].text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "{" if paren == 0 && bracket == 0 => break,
            ";" if paren == 0 && bracket == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    if j >= n {
        return None;
    }
    let open = j;
    let mut depth = 1i32;
    let mut m = open + 1;
    while m < n && depth > 0 {
        match toks[m].text.as_str() {
            "{" => depth += 1,
            "}" => depth -= 1,
            _ => {}
        }
        m += 1;
    }
    Some((open, m))
}

/// Per-token flag: is this token inside a `#[cfg(test)]`-gated region?
/// (Moved here from `rules` so every pass shares one implementation.)
pub fn test_regions(lexed: &Lexed) -> Vec<bool> {
    let toks = &lexed.tokens;
    let n = toks.len();
    let mut in_test = vec![false; n];
    let mut i = 0usize;
    while i < n {
        if toks[i].text == "#" && i + 1 < n && toks[i + 1].text == "[" {
            let attr_start = i + 2;
            let mut depth = 1i32;
            let mut j = attr_start;
            while j < n && depth > 0 {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            let attr_end = j; // one past the closing `]`
            let attr: Vec<&str> = toks[attr_start..attr_end.saturating_sub(1)]
                .iter()
                .map(|t| t.text.as_str())
                .collect();
            let is_cfg_test = attr.first() == Some(&"cfg") && attr.contains(&"test");
            if is_cfg_test {
                let mut k = attr_end;
                while k + 1 < n && toks[k].text == "#" && toks[k + 1].text == "[" {
                    let mut d = 1i32;
                    let mut m = k + 2;
                    while m < n && d > 0 {
                        match toks[m].text.as_str() {
                            "[" => d += 1,
                            "]" => d -= 1,
                            _ => {}
                        }
                        m += 1;
                    }
                    k = m;
                }
                let body_open = (k..n).find(|&m| toks[m].text == "{" || toks[m].text == ";");
                if let Some(open) = body_open {
                    let mut end = open;
                    if toks[open].text == "{" {
                        let mut d = 1i32;
                        let mut m = open + 1;
                        while m < n && d > 0 {
                            match toks[m].text.as_str() {
                                "{" => d += 1,
                                "}" => d -= 1,
                                _ => {}
                            }
                            m += 1;
                        }
                        end = m;
                    }
                    for flag in in_test.iter_mut().take(end.min(n)).skip(i) {
                        *flag = true;
                    }
                    i = end.min(n);
                    continue;
                }
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(src: &str) -> SymbolTable {
        SymbolTable::build(&[("crates/md/src/stream.rs".to_string(), src.to_string())])
    }

    #[test]
    fn free_and_impl_fns_are_distinguished() {
        let t = table(
            "fn free() {}\n\
             struct S;\n\
             impl S { fn method(&self) {} }\n\
             impl Clone for S { fn clone(&self) -> S { S } }\n",
        );
        let names: Vec<(&str, Option<&str>)> = t
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.owner.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![("free", None), ("method", Some("S")), ("clone", Some("S")),]
        );
        assert_eq!(t.by_owner[&("S".into(), "method".into())].len(), 1);
        assert_eq!(t.resolve_manifest("stream.rs", "free").len(), 1);
        assert!(t.resolve_manifest("stream.rs", "missing").is_empty());
        assert_eq!(t.resolve_manifest("stream.rs", "S::method").len(), 1);
        assert!(t.resolve_manifest("stream.rs", "T::method").is_empty());
        assert!(t.resolve_manifest("stream.rs", "S::free").is_empty());
    }

    #[test]
    fn generic_and_qualified_impls_resolve_last_segment() {
        let t = table(
            "impl<T: Clone> Wrapper<T> { fn get(&self) {} }\n\
             impl std::fmt::Display for Wrapper<u32> { fn fmt(&self) {} }\n",
        );
        assert_eq!(t.fns[0].owner.as_deref(), Some("Wrapper"));
        assert_eq!(t.fns[1].owner.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn cfg_test_fns_are_flagged_and_unindexed() {
        let t = table(
            "fn hot() {}\n\
             #[cfg(test)]\n\
             mod tests { fn helper() {} }\n",
        );
        assert!(!t.fns[0].is_test);
        assert!(t.fns[1].is_test);
        assert!(!t.by_name.contains_key("helper"));
    }

    #[test]
    fn fn_after_impl_block_is_free_again() {
        let t = table("impl S { fn a(&self) {} }\nfn b() {}\n");
        assert_eq!(t.fns[0].owner.as_deref(), Some("S"));
        assert_eq!(t.fns[1].owner, None);
    }

    #[test]
    fn nested_fn_is_found_with_file_attribution() {
        let t = table("fn outer() { fn inner() {} inner(); }\n");
        let names: Vec<&str> = t.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
    }

    #[test]
    fn module_paths_derive_from_location() {
        assert_eq!(module_path("crates/md/src/stream.rs"), "anton2_md::stream");
        assert_eq!(module_path("crates/net/src/lib.rs"), "anton2_net");
        assert_eq!(module_path("src/machine.rs"), "anton2::machine");
    }

    #[test]
    fn bodiless_trait_methods_are_skipped() {
        let t = table("trait T { fn decl(&self); fn with_default(&self) {} }\n");
        let names: Vec<&str> = t.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["with_default"]);
    }
}
