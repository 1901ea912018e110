//! The lint pass's declared knowledge of the workspace.
//!
//! Since the call-graph rework, the manifest no longer enumerates every
//! hot function — it declares the **entry points** (the per-step phase
//! implementations, the shard evaluate/merge/exchange paths, the
//! per-crossing network protocol, and the deterministic-accumulation API)
//! and the analyzer derives the hot set transitively ([`crate::reach`]).
//! Adding a helper to a hot function subjects it to the hot-set rules
//! automatically; renaming or deleting a function named here is a hard
//! error ("manifest names unknown symbol"), not silent drift.
//!
//! Keeping these lists here (rather than as attributes scattered through
//! the codebase) mirrors how Anton 2's toolchain works: the machine's
//! schedulable units are enumerated centrally, and the static checks are
//! phrased against that enumeration.

/// What kind of context an entry point runs in. The distinction drives the
/// shard-isolation rule: code reachable from `ShardContext` roots must not
/// touch driver-global state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EntryKind {
    /// Driver-side per-step phase work (the `Phase` taxonomy).
    Step,
    /// Per-shard evaluation work: runs logically inside one shard and may
    /// only write that shard's own state (records, per-shard telemetry).
    ShardContext,
    /// Per-crossing network protocol work in the machine model.
    Net,
}

/// Source files (by basename) that implement the per-step inner loops.
/// The nondeterminism and float-reduction rules apply to every non-test
/// token in these files (the hot *set* extends those rules to helpers in
/// other files too).
pub const HOT_MODULES: &[&str] = &[
    "stream.rs",
    "gse.rs",
    "fixedpoint.rs",
    "pairkernel.rs",
    "bonded.rs",
    "neighbor.rs",
    "cells.rs",
    "integrate.rs",
    "shard.rs",
    "exchange.rs",
];

/// Hot-set roots as `(file basename, fn name, kind)`. Everything reachable
/// from these through the workspace call graph is hot: zero-alloc,
/// panic-freedom, nondet, and float-reduction apply to the whole derived
/// set. `ShardContext` roots additionally seed the shard-isolation set.
///
/// The roots are the ten `Phase` implementations (NeighborRebuild through
/// Exchange), the shard-context evaluation path, the per-crossing network
/// fault/retry protocol, and the co-sim's deterministic accumulation
/// kernels (the fixed-point API is hot by contract even where the current
/// in-tree callers are few — external node kernels call it).
pub const ENTRY_POINTS: &[(&str, &str, EntryKind)] = &[
    // Phase::NeighborRebuild — stream refresh decision + rebuild.
    ("stream.rs", "ensure", EntryKind::Step),
    ("stream.rs", "rebuild_at_epoch", EntryKind::Step),
    // Phase::ShortRange — streaming nonbonded kernel.
    ("stream.rs", "nonbonded_forces_streamed", EntryKind::Step),
    (
        "stream.rs",
        "nonbonded_forces_streamed_profiled",
        EntryKind::Step,
    ),
    // Phase::ShortRange correction passes — invoked directly by the
    // engine's short-force phase after the streamed kernel (they are
    // per-step work; the engine's force dispatchers are not manifest
    // roots, see Phase::Constraints below).
    ("pairkernel.rs", "excluded_corrections", EntryKind::Step),
    ("pairkernel.rs", "scaled14_corrections", EntryKind::Step),
    // Phase::GseSpread / Fft / Interpolate — k-space pipeline.
    ("gse.rs", "energy_forces_with", EntryKind::Step),
    ("gse.rs", "energy_forces_profiled", EntryKind::Step),
    // Phase::Bonded.
    ("bonded.rs", "all_bonded_forces", EntryKind::Step),
    ("bonded.rs", "all_bonded_forces_parallel", EntryKind::Step),
    // Phase::Constraints as the integrator drives it: the per-water loops
    // around SETTLE live in the engine, so they are roots in their own
    // right. `Engine::step` itself is not one yet: as a root it pulls in
    // the barostat's box rebuild (`apply_barostat` -> `Gse::new`,
    // `GseWorkspace::for_gse`), the classic-Ewald reference path and the
    // dispatchers' `expect`s on construction-time invariants — 40 findings
    // that need exemptions of their own, not the rebuild-path ones below.
    // `tests/alloc_steady_state.rs` holds the whole step to zero
    // allocations at run time instead.
    ("engine.rs", "apply_position_constraints", EntryKind::Step),
    ("engine.rs", "apply_velocity_constraints", EntryKind::Step),
    // Phase::Constraints — SETTLE and SHAKE/RATTLE.
    ("settle.rs", "settle_positions", EntryKind::Step),
    ("settle.rs", "settle_velocities", EntryKind::Step),
    ("constraints.rs", "shake_positions", EntryKind::Step),
    ("constraints.rs", "rattle_velocities", EntryKind::Step),
    // Phase::Integration.
    ("integrate.rs", "kick", EntryKind::Step),
    ("integrate.rs", "drift", EntryKind::Step),
    ("integrate.rs", "langevin_o_step", EntryKind::Step),
    // Phase::Thermostat — Berendsen apply, Nosé–Hoover half_step.
    ("thermostat.rs", "apply", EntryKind::Step),
    ("thermostat.rs", "half_step", EntryKind::Step),
    // Phase::Exchange + the shard driver phases.
    ("exchange.rs", "exchange", EntryKind::Step),
    ("shard.rs", "sync", EntryKind::Step),
    ("shard.rs", "merge_forces", EntryKind::Step),
    // Shard-context evaluation: runs per shard, may only write shard-local
    // state (its fixed-point image, tally and telemetry). Seeds the
    // shard-isolation set.
    ("shard.rs", "evaluate", EntryKind::ShardContext),
    // Co-sim node kernels + the fixed-point accumulation API they use.
    ("cosim.rs", "node_pair_forces", EntryKind::Step),
    ("cosim.rs", "verify_pair_forces_with", EntryKind::Step),
    ("fixedpoint.rs", "to_fixed", EntryKind::Step),
    ("fixedpoint.rs", "add_fixed", EntryKind::Step),
    // Per-crossing network protocol: claim + stall/corrupt/retry.
    ("network.rs", "cross_link", EntryKind::Net),
    // Fabric-health observers: fed per crossing/outcome by the transport,
    // read back as the planner's snapshot.
    ("health.rs", "observe_crossing", EntryKind::Net),
    ("health.rs", "observe_stall", EntryKind::Net),
    ("health.rs", "observe_exhausted", EntryKind::Net),
    // Health-driven re-planning: fires at replan cycle boundaries, so it
    // is panic-freedom/nondet-checked like any hot path; its plan
    // construction allocates by design and carries alloc exemptions below.
    ("plan.rs", "replan_with_health", EntryKind::Step),
];

/// Hot-reachable functions exempt from the zero-alloc rule (but from no
/// other rule, and traversal continues *through* them, so their callees
/// are still fully checked). Every entry is a rebuild-path function that
/// runs on skin-exceeded/box-change triggers — not every step — and whose
/// buffer growth is amortized; the runtime allocation-counting tests
/// (`tests/alloc_short_force.rs`, `tests/alloc_steady_state.rs`) prove
/// the steady state — a whole `Engine::step` included — allocation-free
/// end to end.
///
/// A method is keyed `Owner::fn`, so an exemption covers one impl's method
/// and not every same-named function in the file (a bare key naming a
/// method is a manifest error); free functions keep bare keys.
pub const ALLOC_EXEMPT: &[(&str, &str)] = &[
    // Stream refresh: a rebuild grows the list buffers.
    ("stream.rs", "NonbondedStream::rebuild"),
    ("stream.rs", "NonbondedWorkspace::rebuild_at_epoch"),
    // Cell binning allocates the CSR arrays on (re)build.
    ("cells.rs", "CellGrid::build"),
    // Reference neighbor list: built once per co-sim functional check
    // (below), never by the engine.
    ("neighbor.rs", "NeighborList::build"),
    // Shard exchange planning builds the per-shard row plan once per
    // refresh epoch (reached from `sync`, not from the per-step merge).
    ("shard.rs", "ShardSet::plan"),
    // Constructors: sized once at system setup, then reused.
    ("fixedpoint.rs", "FixedAccumulator::new"),
    ("forcefield.rs", "PairTable::new"),
    // The Coulomb table, built with its `PairTable` at engine setup.
    ("erfc.rs", "CoulombTable::new"),
    // Co-sim verification harness: runs per functional check, not per MD
    // step — its pair assignment and scratch vectors are out of scope for
    // the steady-state zero-alloc claim.
    ("cosim.rs", "assign_pairs_by"),
    ("cosim.rs", "assign_pairs"),
    ("cosim.rs", "node_pair_forces"),
    ("cosim.rs", "verify_pair_forces_with"),
    // Machine-model task schedule construction (timing model, not the MD
    // data path).
    ("schedule.rs", "TaskGraph::add"),
    // Pencil-FFT solve allocates per-solve line/transpose scratch; buffer
    // reuse across solves is an open ROADMAP item, and the allocation is
    // per k-space solve (every `kspace_interval` steps), not per step.
    ("pencil.rs", "LocalBlock::zeros"),
    ("pencil.rs", "PencilFft::fft_lines"),
    ("pencil.rs", "PencilFft::transpose"),
    ("pencil.rs", "PencilFft::forward"),
    // Health-driven re-planning: fires once per fault-recovery cycle
    // boundary (never per step) and builds a fresh plan by design; the
    // whole construction path is exempt, exactly like the shard exchange
    // planner above. Panic-freedom/nondet/float rules still apply.
    ("plan.rs", "StepPlan::replan_with_health"),
    ("plan.rs", "PencilLayout::choose"),
    ("plan.rs", "PencilLayout::choose_excluding"),
    ("plan.rs", "PencilLayout::from_hosts"),
    ("plan.rs", "kspace_messages"),
    ("plan.rs", "coalesce"),
    ("plan.rs", "merge_endpoint_lists"),
    ("plan.rs", "remap_return_lists"),
    ("plan.rs", "transpose_messages"),
    ("health.rs", "HealthMap::hot_links"),
    // Route materialization in the machine model: per-route scratch, not
    // MD data-path work.
    ("torus.rs", "Torus::route_with_order"),
];

/// Functions that only the driver may execute: the integer merge of the
/// shard images and the halo exchange, which write driver-global state
/// (the single force image, driver telemetry). Shard-context code
/// ([`EntryKind::ShardContext`] reachability) must never reach these —
/// shards write only their own images, and every cross-shard write is the
/// driver's (DESIGN.md §16).
pub const DRIVER_ONLY: &[(&str, &str)] = &[
    ("shard.rs", "merge_forces"),
    ("exchange.rs", "exchange"),
    ("gse.rs", "convolve"),
];

/// Approved reduction helpers: functions allowed to use bare float
/// accumulation (`.sum()` / float `fold`) because their iteration order is
/// fixed and identical on the serial and parallel paths.
///
/// * `grid_energy` — a serial dot product over the grid in memory order;
///   it is never split across threads, so its summation order is a
///   constant of the grid shape.
pub const REDUCTION_HELPERS: &[(&str, &str)] = &[("gse.rs", "grid_energy")];

/// Identifiers that are forbidden in hot-path modules by the
/// nondeterminism rule. `HashMap`/`HashSet` iterate in randomized order;
/// `Instant`/`SystemTime` read wall clocks outside the `Clock` trait;
/// `rand`/`thread_rng`/`from_entropy` introduce entropy that is not part
/// of the engine's seeded state.
pub const NONDET_IDENTS: &[&str] = &[
    "HashMap",
    "HashSet",
    "Instant",
    "SystemTime",
    "rand",
    "thread_rng",
    "from_entropy",
];

/// Allocation-capable method names (flagged as `.name(` inside hot-set
/// functions). `resize`/`clear` are deliberately absent: on a warm reused
/// buffer they are no-ops, which the runtime allocation tests prove.
pub const ALLOC_METHODS: &[&str] = &[
    "push",
    "collect",
    "to_vec",
    "to_string",
    "to_owned",
    "clone",
    "extend",
    "extend_from_slice",
    "reserve",
    "with_capacity",
];

/// Allocation-capable constructor paths (`Type::method`).
pub const ALLOC_CTORS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
];

/// Allocation-capable macros (flagged as `name!` inside hot-set
/// functions).
pub const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Panic-capable constructs forbidden in the hot set: methods (matched as
/// `.name(`)…
pub const PANIC_METHODS: &[&str] = &["unwrap", "expect", "get_unchecked", "get_unchecked_mut"];

/// …and macros (matched as `name!`). `assert!`/`debug_assert!` are
/// deliberately absent: invariant assertions are how hot code *documents*
/// its bounds, and removing them would trade a loud failure for silent
/// corruption. The rule targets recoverable situations handled by
/// panicking — `unwrap` on an `Option` a caller already checked, `panic!`
/// where a typed error belongs.
pub const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Telemetry counter fields. Outside `telemetry.rs`, assigning to any of
/// these (`.field = …` / `.field += …`) bypasses the `Telemetry` API and
/// breaks the provable-zero-cost-when-off property; mutation must go
/// through `Telemetry::count_*`. The dead-counter rule additionally
/// requires every field's incrementing API to have at least one live
/// production call site.
pub const COUNTER_FIELDS: &[&str] = &[
    "pairs_evaluated",
    "pairs_cut",
    "neighbor_rebuilds",
    "rebuilds_initial",
    "rebuilds_skin",
    "rebuilds_box",
    "rebuilds_invalidated",
    "fft_lines",
    "fixedpoint_clamps",
    "watchdog_checks",
    "net_retries",
    "net_reroutes",
    "rows_rebuilt",
    "cell_churn",
    "spread_points",
    "interp_points",
    "gse_bins_visited",
    "atoms_imported",
    "atoms_exported",
    "exchange_bytes",
    "phase_ns",
];

/// The one file allowed to mutate counter fields directly.
pub const TELEMETRY_FILE: &str = "telemetry.rs";

/// Path components that are never scanned: build output, the lint's own
/// intentionally-bad fixtures, and the offline dependency shims (which
/// emulate external crates and are not governed by engine invariants).
pub const SKIP_DIRS: &[&str] = &["target", "fixtures", "shims", ".git"];
