//! Integration tests for the two-phase (symbol table → call graph →
//! reachability) analyzer, driven by miniature in-memory fixture
//! workspaces with custom [`Spec`]s — plus the acceptance tests that pin
//! the analyzer to the real workspace: the derived hot set must be a
//! strict superset of the legacy hand-written `HOT_PATH` manifest, and
//! the graph dump must stay schema-stable for CI diffing.

use anton2_lint::manifest::EntryKind;
use anton2_lint::workspace::{analyze_sources, analyze_workspace, render_graph_json, Analysis};
use anton2_lint::{Rule, Spec};
use std::path::Path;

fn src(path: &str, s: &str) -> (String, String) {
    (path.to_string(), s.to_string())
}

fn spec(entries: &[(&str, &str, EntryKind)]) -> Spec {
    Spec {
        entry_points: entries
            .iter()
            .map(|(f, n, k)| (f.to_string(), n.to_string(), *k))
            .collect(),
        ..Default::default()
    }
}

fn analyze(sources: Vec<(String, String)>, spec: &Spec) -> Analysis {
    analyze_sources(sources, spec).unwrap_or_else(|e| panic!("manifest errors: {e:?}"))
}

fn fn_id(a: &Analysis, file: &str, name: &str) -> usize {
    a.table.by_file[&(file.to_string(), name.to_string())][0]
}

// ---- transitive reachability ----------------------------------------------

#[test]
fn transitive_alloc_through_helper_is_flagged_with_call_path() {
    // The entry point is clean; the allocation hides one call away in a
    // helper the old per-file scanner never looked at.
    let a = analyze(
        vec![src(
            "crates/x/src/stream.rs",
            "pub fn hot_entry(out: &mut Vec<u32>) {\n\
             \x20   helper(out);\n\
             }\n\
             pub fn helper(out: &mut Vec<u32>) {\n\
             \x20   out.push(1);\n\
             }\n",
        )],
        &spec(&[("stream.rs", "hot_entry", EntryKind::Step)]),
    );
    let allocs: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == Rule::ZeroAlloc)
        .collect();
    assert_eq!(allocs.len(), 1, "{:?}", a.findings);
    assert!(allocs[0].message.contains("hot fn `helper`"), "{allocs:?}");
    assert!(
        allocs[0].message.contains("hot via hot_entry -> helper"),
        "{allocs:?}"
    );
}

#[test]
fn transitive_panic_through_helper_is_flagged() {
    let a = analyze(
        vec![src(
            "crates/x/src/gse.rs",
            "pub fn hot_entry(v: &[u32]) -> u32 {\n\
             \x20   pick(v)\n\
             }\n\
             fn pick(v: &[u32]) -> u32 {\n\
             \x20   v.first().copied().unwrap()\n\
             }\n",
        )],
        &spec(&[("gse.rs", "hot_entry", EntryKind::Step)]),
    );
    let panics: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == Rule::PanicFreedom)
        .collect();
    assert_eq!(panics.len(), 1, "{:?}", a.findings);
    assert!(panics[0].message.contains("`.unwrap(…)`"), "{panics:?}");
    assert!(panics[0].message.contains("hot fn `pick`"), "{panics:?}");
}

#[test]
fn unreachable_helper_is_not_flagged() {
    // Same helper, but nothing on the hot path calls it.
    let a = analyze(
        vec![src(
            "crates/x/src/stream.rs",
            "pub fn hot_entry(out: &mut [u32]) {\n\
             \x20   out[0] = 1;\n\
             }\n\
             pub fn cold_helper(out: &mut Vec<u32>) {\n\
             \x20   out.push(1);\n\
             }\n",
        )],
        &spec(&[("stream.rs", "hot_entry", EntryKind::Step)]),
    );
    assert!(
        a.findings.iter().all(|f| f.rule != Rule::ZeroAlloc),
        "{:?}",
        a.findings
    );
    let cold = fn_id(&a, "stream.rs", "cold_helper");
    assert!(!a.reach.hot[cold]);
}

#[test]
fn alloc_exempt_helper_is_skipped_but_still_hot() {
    let mut s = spec(&[("stream.rs", "hot_entry", EntryKind::Step)]);
    s.alloc_exempt
        .push(("stream.rs".to_string(), "helper".to_string()));
    let a = analyze(
        vec![src(
            "crates/x/src/stream.rs",
            "pub fn hot_entry(out: &mut Vec<u32>) {\n\
             \x20   helper(out);\n\
             }\n\
             pub fn helper(out: &mut Vec<u32>) {\n\
             \x20   out.push(1);\n\
             }\n",
        )],
        &s,
    );
    assert!(
        a.findings.iter().all(|f| f.rule != Rule::ZeroAlloc),
        "{:?}",
        a.findings
    );
    assert!(a.reach.hot[fn_id(&a, "stream.rs", "helper")]);
}

/// An exemption keyed `Owner::fn` covers that owner's method only: a
/// same-named hot constructor of another type in the exempt file is still
/// flagged.
#[test]
fn qualified_exemption_leaves_same_named_hot_method_flagged() {
    let mut s = spec(&[("stream.rs", "hot_entry", EntryKind::Step)]);
    s.alloc_exempt
        .push(("stream.rs".to_string(), "Setup::new".to_string()));
    let a = analyze(
        vec![src(
            "crates/x/src/stream.rs",
            "pub struct Setup;
             impl Setup {
                 pub fn new() -> Vec<u32> {
                     Vec::with_capacity(8)
                 }
             }
             pub struct Scratch;
             impl Scratch {
                 pub fn new() -> Vec<u32> {
                     Vec::with_capacity(8)
                 }
             }
             pub fn hot_entry() -> usize {
                 Setup::new().len() + Scratch::new().len()
             }
",
        )],
        &s,
    );
    let allocs: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == Rule::ZeroAlloc)
        .collect();
    assert_eq!(allocs.len(), 1, "{:?}", a.findings);
    assert_eq!(allocs[0].line, 10, "{allocs:?}");
    assert!(
        allocs[0].message.contains("hot via hot_entry -> new"),
        "{allocs:?}"
    );
}

/// A bare exemption that names a method is a manifest error: it would
/// exempt every same-named function in the file.
#[test]
fn bare_exemption_of_a_method_is_a_manifest_error() {
    let mut s = spec(&[("stream.rs", "hot_entry", EntryKind::Step)]);
    s.alloc_exempt
        .push(("stream.rs".to_string(), "new".to_string()));
    let Err(errors) = analyze_sources(
        vec![src(
            "crates/x/src/stream.rs",
            "pub struct Setup;
             impl Setup {
                 pub fn new() -> Vec<u32> {
                     Vec::new()
                 }
             }
             pub fn hot_entry() -> usize {
                 Setup::new().len()
             }
",
        )],
        &s,
    ) else {
        panic!("bare method exemption must be rejected");
    };
    let text = format!("{errors:?}");
    assert!(text.contains("key it as \\\"Owner::new\\\""), "{text}");
}

// ---- call resolution ------------------------------------------------------

#[test]
fn cross_impl_method_resolution_follows_the_receiver() {
    // `self.step(…)` must resolve to the owner's impl, not every `step`
    // in the workspace; `other.work()` (unknown receiver type) fans out to
    // every *method* named `work` — here exactly one, in another file.
    let a = analyze(
        vec![
            src(
                "crates/x/src/stream.rs",
                "pub struct Driver;\n\
                 impl Driver {\n\
                 \x20   pub fn hot_entry(&self, w: &Worker) {\n\
                 \x20       self.step();\n\
                 \x20       w.work();\n\
                 \x20   }\n\
                 \x20   fn step(&self) {}\n\
                 }\n\
                 pub struct Worker;\n",
            ),
            src(
                "crates/x/src/gse.rs",
                "impl crate::Worker {\n\
                 \x20   pub fn work(&self) {\n\
                 \x20       let _scratch = vec![0u8; 16];\n\
                 \x20   }\n\
                 }\n\
                 pub struct Cold;\n\
                 impl Cold {\n\
                 \x20   pub fn step(&self) {\n\
                 \x20       let _v: Vec<u8> = Vec::new();\n\
                 \x20   }\n\
                 }\n",
            ),
        ],
        &spec(&[("stream.rs", "hot_entry", EntryKind::Step)]),
    );
    // Worker::work is hot (method fan-out) and its vec! is flagged …
    let allocs: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == Rule::ZeroAlloc)
        .collect();
    assert_eq!(allocs.len(), 1, "{:?}", a.findings);
    assert!(allocs[0].message.contains("hot fn `work`"), "{allocs:?}");
    // … but `self.step()` stayed pinned to Driver::step: Cold::step's
    // allocation is not hot and not flagged.
    assert!(!a.reach.hot[fn_id(&a, "gse.rs", "step")]);
    assert!(a.reach.hot[fn_id(&a, "stream.rs", "step")]);
}

#[test]
fn unknown_lowercase_callee_taints_transitive_callers() {
    let a = analyze(
        vec![src(
            "crates/x/src/stream.rs",
            "pub fn hot_entry() {\n\
             \x20   middle();\n\
             }\n\
             pub fn middle() {\n\
             \x20   mystery_extern_call();\n\
             }\n\
             pub fn bystander() {}\n",
        )],
        &spec(&[("stream.rs", "hot_entry", EntryKind::Step)]),
    );
    assert_eq!(a.graph.unknown.len(), 1, "{:?}", a.graph.unknown);
    assert_eq!(a.graph.unknown[0].name, "mystery_extern_call");
    // Taint flows callee → caller through the whole chain …
    assert!(a.reach.tainted[fn_id(&a, "stream.rs", "middle")]);
    assert!(a.reach.tainted[fn_id(&a, "stream.rs", "hot_entry")]);
    // … and nowhere else.
    assert!(!a.reach.tainted[fn_id(&a, "stream.rs", "bystander")]);
    // Uppercase-qualified calls are treated as external constructors,
    // never as unknowns — Vec::new etc. appear all over and must not
    // taint the world (that regression produced absurd hot paths once).
    let b = analyze(
        vec![src(
            "crates/x/src/stream.rs",
            "pub fn hot_entry() -> Vec<u8> {\n\
             \x20   SomeExternal::build()\n\
             }\n",
        )],
        &spec(&[("stream.rs", "hot_entry", EntryKind::Step)]),
    );
    assert!(b.graph.unknown.is_empty(), "{:?}", b.graph.unknown);
    assert!(!b.reach.tainted[fn_id(&b, "stream.rs", "hot_entry")]);
}

// ---- shard isolation ------------------------------------------------------

#[test]
fn driver_only_fn_reachable_from_shard_context_is_flagged() {
    let mut s = spec(&[
        ("shard.rs", "evaluate", EntryKind::ShardContext),
        ("shard.rs", "drive", EntryKind::Step),
    ]);
    s.driver_only
        .push(("shard.rs".to_string(), "merge_global".to_string()));
    let a = analyze(
        vec![src(
            "crates/x/src/shard.rs",
            "pub fn evaluate(rows: &mut [u32]) {\n\
             \x20   merge_global(rows);\n\
             }\n\
             pub fn drive(rows: &mut [u32]) {\n\
             \x20   merge_global(rows);\n\
             }\n\
             pub fn merge_global(rows: &mut [u32]) {\n\
             \x20   rows[0] = 1;\n\
             }\n",
        )],
        &s,
    );
    let shard: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == Rule::ShardIsolation)
        .collect();
    assert_eq!(shard.len(), 1, "{:?}", a.findings);
    assert!(
        shard[0].message.contains("driver-only fn `merge_global`"),
        "{shard:?}"
    );
    assert!(
        shard[0].message.contains("evaluate -> merge_global"),
        "{shard:?}"
    );
}

#[test]
fn driver_only_fn_reached_only_from_step_entries_is_fine() {
    let mut s = spec(&[("shard.rs", "drive", EntryKind::Step)]);
    s.driver_only
        .push(("shard.rs".to_string(), "merge_global".to_string()));
    let a = analyze(
        vec![src(
            "crates/x/src/shard.rs",
            "pub fn drive(rows: &mut [u32]) {\n\
             \x20   merge_global(rows);\n\
             }\n\
             pub fn merge_global(rows: &mut [u32]) {\n\
             \x20   rows[0] = 1;\n\
             }\n",
        )],
        &s,
    );
    assert!(
        a.findings.iter().all(|f| f.rule != Rule::ShardIsolation),
        "{:?}",
        a.findings
    );
}

#[test]
fn bare_tel_write_in_shard_context_is_flagged_but_shard_tel_is_blessed() {
    let a = analyze(
        vec![src(
            "crates/x/src/shard.rs",
            "pub struct Ctx { pub tel: u32 }\n\
             impl Ctx {\n\
             \x20   pub fn evaluate(&mut self, tel: &mut Sink) {\n\
             \x20       tel.count_rows(1);\n\
             \x20       self.tel.count_rows(1);\n\
             \x20   }\n\
             }\n\
             pub struct Sink;\n\
             impl Sink {\n\
             \x20   pub fn count_rows(&self, _n: u32) {}\n\
             }\n",
        )],
        &spec(&[("shard.rs", "evaluate", EntryKind::ShardContext)]),
    );
    let shard: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == Rule::ShardIsolation)
        .collect();
    assert_eq!(shard.len(), 1, "{:?}", a.findings);
    assert!(shard[0].message.contains("`tel.count_rows`"), "{shard:?}");
}

// ---- dead counters --------------------------------------------------------

#[test]
fn dead_counter_families_no_incrementor_and_no_live_caller() {
    // `pairs_evaluated` — incremented and wired: clean.
    // `pairs_cut`       — has an incrementor nobody calls: flagged.
    // `neighbor_rebuilds` — declared with no incrementor at all: flagged.
    let a = analyze(
        vec![
            src(
                "crates/x/src/telemetry.rs",
                "pub struct Counters {\n\
                 \x20   pub pairs_evaluated: u64,\n\
                 \x20   pub pairs_cut: u64,\n\
                 \x20   pub neighbor_rebuilds: u64,\n\
                 }\n\
                 impl Counters {\n\
                 \x20   pub fn count_pairs(&mut self, n: u64) {\n\
                 \x20       self.pairs_evaluated += n;\n\
                 \x20   }\n\
                 \x20   pub fn count_cut(&mut self, n: u64) {\n\
                 \x20       self.pairs_cut += n;\n\
                 \x20   }\n\
                 }\n",
            ),
            src(
                "crates/x/src/engine.rs",
                "pub fn run(c: &mut crate::Counters) {\n\
                 \x20   c.count_pairs(1);\n\
                 }\n",
            ),
        ],
        &spec(&[]),
    );
    let dead: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == Rule::DeadCounter)
        .collect();
    assert_eq!(dead.len(), 2, "{:?}", a.findings);
    assert!(
        dead.iter().any(|f| f
            .message
            .contains("`pairs_cut` is incremented only by `count_cut`")),
        "{dead:?}"
    );
    assert!(
        dead.iter().any(|f| f
            .message
            .contains("`neighbor_rebuilds` has no increment site")),
        "{dead:?}"
    );
    assert!(
        dead.iter().all(|f| !f.message.contains("pairs_evaluated")),
        "{dead:?}"
    );
}

// ---- manifest drift -------------------------------------------------------

#[test]
fn manifest_naming_unknown_symbol_is_a_hard_error() {
    let err = analyze_sources(
        vec![src("crates/x/src/stream.rs", "pub fn real_entry() {}\n")],
        &spec(&[("stream.rs", "renamed_entry", EntryKind::Step)]),
    )
    .expect_err("drifted manifest must not analyze");
    assert_eq!(err.len(), 1, "{err:?}");
    assert!(err[0].contains("manifest names unknown symbol"), "{err:?}");
    assert!(err[0].contains("renamed_entry"), "{err:?}");
}

// ---- the real workspace ---------------------------------------------------

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf()
}

/// The hand-written per-function HOT_PATH manifest this analyzer replaced,
/// kept verbatim as a witness: every function the old list named must be
/// *derived* as hot by the call-graph pass, or coverage regressed.
/// (`stream.rs` `can_patch`/`filter_ext` and `cells.rs` `min_width` were
/// the verify-and-patch list refresh and were deleted with it; they no
/// longer exist to be derived.)
const LEGACY_HOT_PATH: &[(&str, &str)] = &[
    ("pbc.rs", "min_image"),
    ("pbc.rs", "fold"),
    ("stream.rs", "staleness"),
    ("stream.rs", "needs_rebuild"),
    ("stream.rs", "gather_positions"),
    ("stream.rs", "evaluate_rows"),
    ("stream.rs", "nonbonded_forces_streamed"),
    ("stream.rs", "nonbonded_forces_streamed_profiled"),
    ("pairkernel.rs", "pair_interaction_split"),
    ("pairkernel.rs", "pair_interaction"),
    ("pairkernel.rs", "pair_interaction_lanes"),
    ("erfc.rs", "eval"),
    ("erfc.rs", "eval8"),
    ("pairkernel.rs", "lj_shift_at"),
    ("pairkernel.rs", "excluded_corrections"),
    ("pairkernel.rs", "scaled14_corrections"),
    ("gse.rs", "fill_tables"),
    ("gse.rs", "bin_planes"),
    ("gse.rs", "spread_planes_serial"),
    ("gse.rs", "spread_planes_parallel"),
    ("gse.rs", "spread_plane_item"),
    ("gse.rs", "spread_row"),
    ("gse.rs", "convolve"),
    ("gse.rs", "energy_forces_with"),
    ("gse.rs", "energy_forces_profiled"),
    ("gse.rs", "grid_energy"),
    ("gse.rs", "interp_force_slot"),
    ("gse.rs", "interp_row_lanes"),
    ("gse.rs", "interpolate_tables_chunked"),
    ("bonded.rs", "bond_forces"),
    ("bonded.rs", "angle_forces"),
    ("bonded.rs", "torsion_phi_and_forces"),
    ("bonded.rs", "dihedral_forces"),
    ("bonded.rs", "urey_bradley_forces"),
    ("bonded.rs", "improper_forces"),
    ("bonded.rs", "all_bonded_forces"),
    ("bonded.rs", "all_bonded_forces_parallel"),
    // `dihedral_angle` moved to LEGACY_STALE below.
    ("fixedpoint.rs", "to_fixed"),
    ("fixedpoint.rs", "from_fixed"),
    ("fixedpoint.rs", "to_fixed_saturating"),
    ("fixedpoint.rs", "add"),
    ("fixedpoint.rs", "add_fixed"),
    ("fixedpoint.rs", "merge"),
    ("cells.rs", "forward_shifts"),
    // The reference `NeighborList` walks cells by index, and the co-sim's
    // functional checks build one.
    ("cells.rs", "neighborhood"),
    ("cells.rs", "forward_neighbors"),
    ("integrate.rs", "kick"),
    ("integrate.rs", "drift"),
    ("integrate.rs", "langevin_o_step"),
    ("integrate.rs", "gauss"),
    ("fault.rs", "draw"),
    ("fault.rs", "corrupts"),
    ("fault.rs", "stalls"),
    ("fault.rs", "delay"),
    ("network.rs", "claim"),
    ("network.rs", "cross_link"),
    ("shard.rs", "sync"),
    ("shard.rs", "evaluate"),
    ("shard.rs", "merge_forces"),
    ("exchange.rs", "exchange"),
];

/// Entries the hand-written manifest had let drift: they existed (still
/// do, as public API and test utilities) but no production step-path code
/// calls them anymore, so the hand-written list was over-approximating.
/// The call-graph pass makes the drift visible — these must resolve as
/// symbols but must *not* be derived hot:
/// * `cells.rs` `cell_of` — binning computes the cell index inline; the
///   standalone lookup survives for tests and external callers.
/// * `bonded.rs` `dihedral_angle` — the fused `torsion_phi_and_forces`
///   computes φ inline; the standalone wrapper now serves only the
///   topology builders and geometry tests.
const LEGACY_STALE: &[(&str, &str)] = &[("cells.rs", "cell_of"), ("bonded.rs", "dihedral_angle")];

#[test]
fn derived_hot_set_is_a_strict_superset_of_the_legacy_manifest() {
    let a = analyze_workspace(&workspace_root()).expect("workspace analyzes");
    let hot = a.reach.hot_pairs(&a.table);
    let missing: Vec<_> = LEGACY_HOT_PATH
        .iter()
        .filter(|(f, n)| !hot.contains(&(f.to_string(), n.to_string())))
        .collect();
    assert!(
        missing.is_empty(),
        "legacy hot fns the derived set lost: {missing:?}"
    );
    // Strictness: the derived set must also contain hot helpers the
    // hand-written list never knew about.
    assert!(
        hot.len() > LEGACY_HOT_PATH.len(),
        "derived set ({}) is not strictly larger than the legacy list ({})",
        hot.len(),
        LEGACY_HOT_PATH.len()
    );
    // The documented-stale entries still resolve as symbols (they are
    // live public API) but are correctly *outside* the derived hot set —
    // this is the manifest drift the hand-written list had accumulated.
    for (file, name) in LEGACY_STALE {
        assert!(
            !a.table.resolve_manifest(file, name).is_empty(),
            "{file}/{name}: stale entry no longer resolves; drop it from LEGACY_STALE"
        );
        assert!(
            !hot.contains(&(file.to_string(), name.to_string())),
            "{file}/{name}: marked stale but derived hot — move it back to LEGACY_HOT_PATH"
        );
    }
}

#[test]
fn graph_json_dump_is_schema_stable_and_deterministic() {
    let a = analyze_workspace(&workspace_root()).expect("workspace analyzes");
    let dump = render_graph_json(&a);
    assert!(
        dump.contains("\"schema\": \"anton2-lint-graph/v1\""),
        "{}",
        &dump[..200.min(dump.len())]
    );
    for key in [
        "\"entry_points\"",
        "\"hot_fns\"",
        "\"edges\"",
        "\"unknown_calls\"",
        "\"hot_count\"",
        "\"fn_count\"",
    ] {
        assert!(dump.contains(key), "missing {key}");
    }
    // Entry points must surface by name, and the dump must be reproducible.
    assert!(dump.contains("nonbonded_forces_streamed"), "entry missing");
    let again = render_graph_json(&analyze_workspace(&workspace_root()).unwrap());
    assert_eq!(dump, again, "graph dump is not deterministic");
}
