//! The eight rule families, implemented over the token stream.
//!
//! Five families are *per-file* (this module's [`analyze_source`]):
//! nondet, float-reduction, unsafe-audit, telemetry-discipline, and the
//! per-file slice of zero-alloc/panic-freedom (entry-point bodies). The
//! transitive slices — zero-alloc/panic-freedom/nondet/float-reduction
//! over the whole derived hot set, shard-isolation, and dead-counter —
//! need the workspace call graph and live in [`crate::workspace`], built
//! from the shared scan helpers below so both passes flag identically.
//!
//! Every family reports [`Finding`]s with file/line diagnostics and honors
//! the `// anton2-lint: allow(<rule>, …) -- reason` escape hatch (same
//! line or the line above). Code inside `#[cfg(test)]` regions is exempt
//! from all rules except `unsafe-audit` — tests may hash, clock, and
//! allocate, but an unsafe block needs a `// SAFETY:` justification
//! everywhere.

use crate::lexer::{lex, Kind, Lexed, Tok};
use crate::manifest::{
    ALLOC_CTORS, ALLOC_EXEMPT, ALLOC_MACROS, ALLOC_METHODS, COUNTER_FIELDS, ENTRY_POINTS,
    HOT_MODULES, NONDET_IDENTS, PANIC_MACROS, PANIC_METHODS, REDUCTION_HELPERS, TELEMETRY_FILE,
};
use crate::symbols::{key_matches, parse_fns, test_regions, ParsedFn};
use std::collections::{BTreeMap, BTreeSet};

/// One of the eight enforced rule families.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Nondeterministic construct in a hot-path module or hot-set fn.
    Nondet,
    /// Allocation-capable call inside a hot-set function.
    ZeroAlloc,
    /// Bare float accumulation outside approved reduction helpers.
    FloatReduction,
    /// `unsafe` without a `// SAFETY:` justification.
    UnsafeAudit,
    /// Telemetry counter mutated outside the `Telemetry` API.
    Telemetry,
    /// Panic-capable construct inside a hot-set function.
    PanicFreedom,
    /// Shard-context code touching driver-global state.
    ShardIsolation,
    /// Telemetry counter with no production increment site.
    DeadCounter,
}

impl Rule {
    /// All rule families, in report order.
    pub const ALL: [Rule; 8] = [
        Rule::Nondet,
        Rule::ZeroAlloc,
        Rule::FloatReduction,
        Rule::UnsafeAudit,
        Rule::Telemetry,
        Rule::PanicFreedom,
        Rule::ShardIsolation,
        Rule::DeadCounter,
    ];

    /// Stable kebab-case name used in reports, `allow(...)` comments, and
    /// the baseline file.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Nondet => "nondet",
            Rule::ZeroAlloc => "zero-alloc",
            Rule::FloatReduction => "float-reduction",
            Rule::UnsafeAudit => "unsafe-audit",
            Rule::Telemetry => "telemetry-discipline",
            Rule::PanicFreedom => "panic-freedom",
            Rule::ShardIsolation => "shard-isolation",
            Rule::DeadCounter => "dead-counter",
        }
    }

    /// Parse a rule name as written in an `allow(...)` comment.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == name)
    }

    /// Rationale, example violation, and escape hatch — what
    /// `anton2-lint --explain <rule>` prints.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::Nondet => {
                "\
nondet — no nondeterminism in hot code.

Why: the engine's contract is bitwise serial ≡ parallel ≡ sharded.
HashMap/HashSet iterate in randomized order, Instant/SystemTime read wall
clocks outside the telemetry Clock trait, and rand/thread_rng/from_entropy
inject entropy that is not part of the seeded state. Any of these in the
per-step path silently breaks the contract.

Scope: every non-test token in hot-path modules (manifest HOT_MODULES),
plus the bodies of all derived hot-set functions in other files.

Example violation:
    let mut seen = HashMap::new();        // randomized iteration order

Fix: BTreeMap/BTreeSet or a sorted Vec; clocks via telemetry::Clock;
randomness via the engine's seeded streams.

Escape hatch: // anton2-lint: allow(nondet) -- <why this is safe>"
            }
            Rule::ZeroAlloc => {
                "\
zero-alloc — no allocation-capable calls in the derived hot set.

Why: Anton 2's per-step schedule has no allocator; steady-state allocation
in the force path costs latency, fragments, and hides O(n) work. The
runtime tests prove the steady state end to end; this rule catches the
function a test happens not to execute.

Scope: every function transitively reachable from the manifest
ENTRY_POINTS (the derived hot set), except rebuild-path functions listed
in ALLOC_EXEMPT (amortized growth; still checked by every other rule).

Example violation:
    fn gather(&mut self) { self.rows.push(row); }   // called from ensure()

Fix: pre-size buffers at (re)build time and write through cursors/indices.

Escape hatch: // anton2-lint: allow(zero-alloc) -- <why amortized/cold>"
            }
            Rule::FloatReduction => {
                "\
float-reduction — no bare float accumulation in hot code.

Why: float addition is not associative; a free-order .sum::<f64>() or
fold(0.0, +) gives different bits serial vs parallel, breaking the bitwise
contract. Reductions must fix their order explicitly (fixed-chunk merges
in chunk order, fixed-point accumulators) or be declared order-safe.

Scope: hot-path modules and derived hot-set functions; REDUCTION_HELPERS
lists the audited exceptions (serial, memory-order dot products).

Example violation:
    let e: f64 = contributions.iter().sum();

Fix: fixed-chunk reduction, FixedAccumulator, or f64::max/min folds
(order-free). To bless an audited helper, add it to REDUCTION_HELPERS.

Escape hatch: // anton2-lint: allow(float-reduction) -- <why order-fixed>"
            }
            Rule::UnsafeAudit => {
                "\
unsafe-audit — every `unsafe` carries a written justification.

Why: the workspace forbids unsafe in principle; where it is unavoidable the
invariants the compiler can no longer check must be written down where the
code is.

Scope: everywhere, including tests.

Example violation:
    let x = unsafe { *ptr };              // no SAFETY comment

Fix: precede with // SAFETY: <the invariant and why it holds here>.

Escape hatch: none — write the SAFETY comment instead."
            }
            Rule::Telemetry => {
                "\
telemetry-discipline — counters mutate only through the Telemetry API.

Why: TelemetryLevel::Off is proven zero-cost because every increment goes
through inlined count_* methods that compile to nothing when disabled.
A direct `stats.pairs_evaluated += n` outside telemetry.rs bypasses the
level check and reintroduces unconditional work.

Scope: every file except telemetry.rs; fields listed in COUNTER_FIELDS.

Example violation:
    self.counters.pairs_evaluated += pairs as u64;

Fix: tel.count_pairs(pairs, cut) — or add a count_* method.

Escape hatch: // anton2-lint: allow(telemetry-discipline) -- <why>"
            }
            Rule::PanicFreedom => {
                "\
panic-freedom — no panic-capable constructs in the derived hot set.

Why: a panic mid-step tears down the engine with shards half-exchanged and
telemetry half-written; on the real machine the equivalent is a node
asserting mid-timestep. Hot code handles recoverable situations with typed
errors and leaves invariant checks to assert! (which stays allowed — a
violated invariant *should* stop the run loudly).

Scope: every derived hot-set function. Flags .unwrap( / .expect( /
panic! / unreachable! / todo! / unimplemented! / get_unchecked*.
Plain indexing `a[i]` is deliberately NOT flagged: MD kernels index
by construction-bounded loops everywhere, and burying one real unwrap
under thousands of bounded-index notes would make the rule useless.

Example violation:
    let p = self.fault.as_ref().expect(\"fault plan present\");

Fix: match/if-let with a typed error or a documented fallback.

Escape hatch: // anton2-lint: allow(panic-freedom) -- <why unreachable>"
            }
            Rule::ShardIsolation => {
                "\
shard-isolation — shard-context code writes only shard-local state.

Why: shards write only their own fixed-point images (DESIGN.md §16); every
cross-shard write is the driver's merge of those images. A shard-context
function that writes driver-global telemetry or grid state breaks that
isolation and makes a shard's result depend on its neighbours.

Scope: functions reachable from ShardContext entry points. Two checks:
(1) reaching a DRIVER_ONLY function (merge_forces, exchange, the GSE
convolve) is a violation, reported with the call path;
(2) mutating telemetry through a bare `tel` binding (the driver's) instead
of the per-shard sink (`shard.tel.count_*`) is a violation.

Example violation:
    fn evaluate_shard_rows(..., tel: &mut Telemetry) { tel.count_pairs(n, c); }

Fix: write to the shard's own `tel` field; the driver books the global
counters from the merged tally.

Escape hatch: // anton2-lint: allow(shard-isolation) -- <why driver-safe>"
            }
            Rule::DeadCounter => {
                "\
dead-counter — every telemetry counter has a live increment site.

Why: a counter that nothing increments is worse than no counter: dashboards
read it as a true zero. Every COUNTER_FIELDS entry must be incremented by
some telemetry.rs method that has at least one non-test call site outside
telemetry.rs.

Scope: COUNTER_FIELDS × the workspace call graph.

Example violation:
    pub net_retries: u64,     // count_net_retries exists but nothing calls it

Fix: wire the counting API into the subsystem that owns the event, or
delete the counter.

Escape hatch: // anton2-lint: allow(dead-counter) -- <why kept> (place on
the field declaration in telemetry.rs)"
            }
        }
    }
}

/// One diagnostic: a rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    /// Workspace-relative path (or the label given to [`analyze_source`]).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
    /// Trimmed source line, for human reports and baseline fingerprints.
    pub excerpt: String,
}

/// Analyze one file's source. `path` scopes the rules: hot-module rules
/// key off the basename, and the telemetry rule exempts `telemetry.rs`.
///
/// Standalone (single-file) analysis checks the zero-alloc and
/// panic-freedom families on *entry-point bodies only* — the transitive
/// hot set needs the whole workspace and is handled by
/// [`crate::workspace::analyze_workspace`], which scopes those families to
/// every derived hot function.
pub fn analyze_source(path: &str, source: &str) -> Vec<Finding> {
    analyze_source_inner(path, source, true)
}

/// `hot_fn_rules = false` skips the per-file zero-alloc/panic-freedom
/// slice — the workspace pass applies them to the full derived hot set
/// instead (of which the entry points are members), avoiding duplicates.
pub(crate) fn analyze_source_inner(path: &str, source: &str, hot_fn_rules: bool) -> Vec<Finding> {
    let lexed = lex(source);
    let lines: Vec<&str> = source.lines().collect();
    let basename = path.rsplit('/').next().unwrap_or(path);

    let allows = allow_map(&lexed);
    let in_test = test_regions(&lexed);
    let fns = parse_fns(&lexed, &in_test);

    let mut findings: Vec<Finding> = Vec::new();
    let excerpt = |line: u32| -> String {
        lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };
    let mut push = |rule: Rule, line: u32, message: String| {
        findings.push(Finding {
            rule,
            path: path.to_string(),
            line,
            message,
            excerpt: excerpt(line),
        });
    };

    let hot_module = HOT_MODULES.contains(&basename);
    let toks = &lexed.tokens;
    let n = toks.len();

    // --- nondet: forbidden identifiers in hot-path modules -----------------
    if hot_module {
        for (i, t) in toks.iter().enumerate() {
            if t.kind == Kind::Ident && NONDET_IDENTS.contains(&t.text.as_str()) && !in_test[i] {
                push(
                    Rule::Nondet,
                    t.line,
                    format!("`{}` in hot-path module: {}", t.text, nondet_why(&t.text)),
                );
            }
        }
    }

    // --- zero-alloc + panic-freedom on entry-point bodies ------------------
    if hot_fn_rules {
        let is_entry = |f: &&ParsedFn| listed(ENTRY_POINTS.iter().map(|e| (e.0, e.1)), basename, f);
        for f in fns.iter().filter(is_entry) {
            let ((start, end), fname) = (&f.body, &f.name);
            if !listed(ALLOC_EXEMPT.iter().copied(), basename, f) {
                for (line, what) in scan_alloc(toks, *start, *end) {
                    push(
                        Rule::ZeroAlloc,
                        line,
                        format!("{what} inside hot fn `{fname}`"),
                    );
                }
            }
            for (line, what) in scan_panic(toks, *start, *end) {
                push(
                    Rule::PanicFreedom,
                    line,
                    format!("{what} inside hot fn `{fname}`"),
                );
            }
        }
    }

    // --- float-reduction: bare float accumulation in hot modules -----------
    if hot_module {
        let approved: Vec<(usize, usize)> = fns
            .iter()
            .filter(|f| listed(REDUCTION_HELPERS.iter().copied(), basename, f))
            .map(|f| f.body)
            .collect();
        let skip = |i: usize| in_test[i] || approved.iter().any(|(s, e)| (*s..*e).contains(&i));
        for (line, msg) in scan_float_reduction(toks, 0, n, &skip) {
            push(Rule::FloatReduction, line, msg);
        }
    }

    // --- unsafe-audit: every `unsafe` needs a SAFETY justification ---------
    // Applies everywhere, including test code.
    {
        let safety_lines: BTreeSet<u32> = lexed
            .comments
            .iter()
            .filter(|c| c.text.contains("SAFETY:"))
            .flat_map(|c| c.line..=c.end_line)
            .collect();
        for t in toks.iter() {
            if t.kind == Kind::Ident && t.text == "unsafe" {
                let justified =
                    (t.line.saturating_sub(3)..=t.line).any(|l| safety_lines.contains(&l));
                if !justified {
                    push(
                        Rule::UnsafeAudit,
                        t.line,
                        "`unsafe` without a `// SAFETY:` comment on the preceding lines"
                            .to_string(),
                    );
                }
            }
        }
    }

    // --- telemetry-discipline: counters mutate only through the API -------
    if basename != TELEMETRY_FILE {
        for i in 0..n {
            if in_test[i] {
                continue;
            }
            if toks[i].text == "."
                && i + 2 < n
                && toks[i + 1].kind == Kind::Ident
                && COUNTER_FIELDS.contains(&toks[i + 1].text.as_str())
                && matches!(toks[i + 2].text.as_str(), "=" | "+=" | "-=")
            {
                push(
                    Rule::Telemetry,
                    toks[i + 1].line,
                    format!(
                        "direct mutation of telemetry counter `{}`; go through the \
                         `Telemetry::count_*` API so `TelemetryLevel::Off` stays free",
                        toks[i + 1].text
                    ),
                );
            }
        }
    }

    // Escape hatch + stable ordering + dedup.
    findings.retain(|f| {
        !allows
            .get(&f.line)
            .is_some_and(|rules| rules.contains(&f.rule))
    });
    findings.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    findings.dedup();
    findings
}

/// Why a given nondet identifier is forbidden.
pub(crate) fn nondet_why(ident: &str) -> &'static str {
    match ident {
        "HashMap" | "HashSet" => {
            "iteration order is randomized; use BTreeMap/BTreeSet or a sorted Vec"
        }
        "Instant" | "SystemTime" => "wall-clock reads belong behind the telemetry `Clock` trait",
        _ => "entropy outside the engine's seeded state breaks replay determinism",
    }
}

// ---------------------------------------------------------------------------
// Shared token-range scanners — used by both the per-file pass above and the
// workspace hot-set pass, so a construct flags identically in both.
// ---------------------------------------------------------------------------

/// Allocation-capable constructs in `toks[start..end]` as `(line, what)`.
pub(crate) fn scan_alloc(toks: &[Tok], start: usize, end: usize) -> Vec<(u32, String)> {
    let n = toks.len();
    let end = end.min(n);
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.kind == Kind::Ident {
            // `vec!` / `format!`
            if ALLOC_MACROS.contains(&t.text.as_str()) && i + 1 < n && toks[i + 1].text == "!" {
                out.push((t.line, format!("`{}!` allocates", t.text)));
            }
            // `Vec::new` / `Box::new` / `String::from` …
            if i + 2 < n && toks[i + 1].text == "::" && toks[i + 2].kind == Kind::Ident {
                let pair = (t.text.as_str(), toks[i + 2].text.as_str());
                if ALLOC_CTORS.contains(&pair) {
                    out.push((t.line, format!("`{}::{}` allocates", pair.0, pair.1)));
                }
            }
        }
        // `.push(` / `.collect(` / `.collect::<…>(` / `.clone()` …
        if t.text == "." && i + 2 < n && toks[i + 1].kind == Kind::Ident {
            let m = toks[i + 1].text.as_str();
            let after = toks[i + 2].text.as_str();
            if ALLOC_METHODS.contains(&m) && (after == "(" || after == "::") {
                out.push((toks[i + 1].line, format!("`.{m}(…)` is allocation-capable")));
            }
        }
        i += 1;
    }
    out
}

/// Panic-capable constructs in `toks[start..end]` as `(line, what)`.
pub(crate) fn scan_panic(toks: &[Tok], start: usize, end: usize) -> Vec<(u32, String)> {
    let n = toks.len();
    let end = end.min(n);
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.kind == Kind::Ident {
            // `panic!` / `unreachable!` / `todo!` / `unimplemented!`
            if PANIC_MACROS.contains(&t.text.as_str()) && i + 1 < n && toks[i + 1].text == "!" {
                out.push((t.line, format!("`{}!` panics", t.text)));
            }
        }
        // `.unwrap(` / `.expect(` / `.get_unchecked(`
        if t.text == "." && i + 2 < n && toks[i + 1].kind == Kind::Ident {
            let m = toks[i + 1].text.as_str();
            if PANIC_METHODS.contains(&m) && toks[i + 2].text == "(" {
                let what = if m.starts_with("get_unchecked") {
                    format!("`.{m}(…)` is unchecked indexing")
                } else {
                    format!("`.{m}(…)` panics on the error path")
                };
                out.push((toks[i + 1].line, what));
            }
        }
        i += 1;
    }
    out
}

/// Nondet identifiers in `toks[start..end]` as `(line, ident)`.
pub(crate) fn scan_nondet(toks: &[Tok], start: usize, end: usize) -> Vec<(u32, String)> {
    toks[start..end.min(toks.len())]
        .iter()
        .filter(|t| t.kind == Kind::Ident && NONDET_IDENTS.contains(&t.text.as_str()))
        .map(|t| (t.line, t.text.clone()))
        .collect()
}

/// Bare float accumulation in `toks[start..end]` as `(line, message)`.
/// `skip(i)` exempts a token index (test regions, approved helpers).
pub(crate) fn scan_float_reduction(
    toks: &[Tok],
    start: usize,
    end: usize,
    skip: &dyn Fn(usize) -> bool,
) -> Vec<(u32, String)> {
    let n = toks.len();
    let end = end.min(n);
    let mut out = Vec::new();
    for i in start..end {
        if skip(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind != Kind::Ident {
            continue;
        }
        // `.sum::<f64>()`
        if t.text == "sum"
            && i + 3 < n
            && toks[i + 1].text == "::"
            && toks[i + 2].text == "<"
            && matches!(toks[i + 3].text.as_str(), "f64" | "f32")
        {
            out.push((
                t.line,
                format!(
                    "bare `.sum::<{}>()` outside approved reduction helpers; use a \
                     fixed-chunk reduction in chunk order or a fixed-point accumulator",
                    toks[i + 3].text
                ),
            ));
        }
        // `fold(0.0, …)` — float init, additive combiner. `f64::max`
        // and `f64::min` folds are order-independent and pass.
        if t.text == "fold"
            && i + 2 < n
            && toks[i + 1].text == "("
            && toks[i + 2].kind == Kind::Num
            && is_float_literal(&toks[i + 2].text)
        {
            let comb: Vec<&str> = toks[i + 3..n.min(i + 8)]
                .iter()
                .map(|t| t.text.as_str())
                .collect();
            let order_free = comb.contains(&"max") || comb.contains(&"min");
            if !order_free {
                out.push((
                    t.line,
                    "float `fold` accumulation outside approved reduction helpers; \
                     summation order must be fixed explicitly"
                        .to_string(),
                ));
            }
        }
        // `let x: f64 = … .sum() …;` — untyped sum with a float binding.
        if t.text == "let" {
            let stmt_end = (i..n.min(i + 256))
                .find(|&j| toks[j].text == ";")
                .unwrap_or(i);
            let mut float_typed = false;
            let mut j = i;
            while j + 2 < stmt_end {
                if toks[j].text == ":"
                    && matches!(toks[j + 1].text.as_str(), "f64" | "f32")
                    && toks[j + 2].text == "="
                {
                    float_typed = true;
                    break;
                }
                j += 1;
            }
            if float_typed {
                for j in i..stmt_end {
                    if toks[j].text == "."
                        && j + 2 < stmt_end
                        && toks[j + 1].text == "sum"
                        && toks[j + 2].text == "("
                    {
                        out.push((
                            toks[j + 1].line,
                            "float-typed `.sum()` outside approved reduction helpers; \
                             use a fixed-chunk reduction or a fixed-point accumulator"
                                .to_string(),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Is a numeric literal a float (`0.0`, `1e-3`, `0f64`)?
pub(crate) fn is_float_literal(text: &str) -> bool {
    text.contains('.')
        || text.ends_with("f64")
        || text.ends_with("f32")
        || (text.contains(['e', 'E']) && !text.starts_with("0x"))
}

/// Lines covered by `// anton2-lint: allow(rule, …)` comments. A comment
/// covers its own lines plus the next line, so both trailing and
/// standalone placement work.
pub(crate) fn allow_map(lexed: &Lexed) -> BTreeMap<u32, BTreeSet<Rule>> {
    let mut map: BTreeMap<u32, BTreeSet<Rule>> = BTreeMap::new();
    for c in &lexed.comments {
        let Some(at) = c.text.find("anton2-lint:") else {
            continue;
        };
        let rest = &c.text[at + "anton2-lint:".len()..];
        let Some(open) = rest.find("allow(") else {
            continue;
        };
        let Some(close) = rest[open..].find(')') else {
            continue;
        };
        let inner = &rest[open + "allow(".len()..open + close];
        let rules: BTreeSet<Rule> = inner
            .split(',')
            .filter_map(|s| Rule::from_name(s.trim()))
            .collect();
        if rules.is_empty() {
            continue;
        }
        for line in c.line..=c.end_line + 1 {
            map.entry(line).or_default().extend(rules.iter().copied());
        }
    }
    map
}

/// Does a manifest list name `f`, defined in the file `basename`? Keys are
/// matched by [`key_matches`], so an `Owner::fn` key names only that
/// owner's method.
fn listed<'a>(
    mut list: impl Iterator<Item = (&'a str, &'a str)>,
    basename: &str,
    f: &ParsedFn,
) -> bool {
    list.any(|(file, key)| file == basename && key_matches(key, f.owner.as_deref(), &f.name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_name(r.name()), Some(r));
        }
        assert_eq!(Rule::from_name("no-such-rule"), None);
    }

    #[test]
    fn every_rule_has_an_explanation_with_escape_hatch_note() {
        for r in Rule::ALL {
            let e = r.explain();
            assert!(
                e.starts_with(r.name()),
                "{}: explain must lead with name",
                r.name()
            );
            assert!(
                e.contains("Escape hatch"),
                "{}: explain must document the escape hatch",
                r.name()
            );
            assert!(e.contains("Example violation"), "{}", r.name());
        }
    }

    #[test]
    fn cfg_test_region_is_exempt() {
        let src = "
fn hot() {}
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    fn helper() { let _m: HashMap<u32, u32> = HashMap::new(); }
}
";
        let f = analyze_source("crates/md/src/cells.rs", src);
        assert!(f.is_empty(), "test code must be exempt: {f:?}");
    }

    #[test]
    fn nondet_fires_outside_tests() {
        let f = analyze_source(
            "crates/md/src/cells.rs",
            "use std::collections::HashMap;\nfn f() { let _ = HashMap::<u32, u32>::new(); }\n",
        );
        assert!(f.iter().all(|f| f.rule == Rule::Nondet));
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn allow_comment_suppresses() {
        let f = analyze_source(
            "crates/md/src/cells.rs",
            "// anton2-lint: allow(nondet) -- justified\nuse std::collections::HashMap;\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn non_hot_module_is_not_scoped() {
        let f = analyze_source(
            "crates/md/src/observables.rs",
            "use std::collections::HashMap;\nfn f() { v.iter().sum::<f64>(); }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn entry_point_body_is_checked_per_file() {
        // `ensure` is an ENTRY_POINTS fn for stream.rs: standalone analysis
        // applies zero-alloc and panic-freedom to its body.
        let src = "impl S { fn ensure(&mut self) { self.rows.push(1); self.opt.unwrap(); } }";
        let f = analyze_source("crates/md/src/stream.rs", src);
        assert!(f.iter().any(|f| f.rule == Rule::ZeroAlloc), "{f:?}");
        assert!(f.iter().any(|f| f.rule == Rule::PanicFreedom), "{f:?}");
    }

    #[test]
    fn alloc_exempt_fn_skips_zero_alloc_but_not_panic() {
        // `rebuild` is ALLOC_EXEMPT for stream.rs but is not an entry point,
        // so standalone analysis says nothing; `rebuild_at_epoch` IS an entry
        // point and exempt for `NonbondedWorkspace`: allocs pass, panics
        // still flag.
        let src = "impl NonbondedWorkspace { fn rebuild_at_epoch(&mut self) { self.v.push(1); self.o.unwrap(); } }";
        let f = analyze_source("crates/md/src/stream.rs", src);
        assert!(f.iter().all(|f| f.rule == Rule::PanicFreedom), "{f:?}");
        assert_eq!(f.len(), 1, "{f:?}");
        // The exemption names its owner: the same entry point on another
        // type still has its allocation flagged.
        let src = "impl S { fn rebuild_at_epoch(&mut self) { self.v.push(1); } }";
        let f = analyze_source("crates/md/src/stream.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::ZeroAlloc, "{f:?}");
    }

    #[test]
    fn scan_panic_flags_macros_and_methods() {
        let lexed =
            lex("fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"boom\"); a.get_unchecked(0); }");
        let hits = scan_panic(&lexed.tokens, 0, lexed.tokens.len());
        assert_eq!(hits.len(), 4, "{hits:?}");
    }
}
