//! Step-phase telemetry: where each MD step's time goes, and what the
//! hardware-meaningful work counters were.
//!
//! Anton 2's headline claims rest on fine-grained overlap — knowing exactly
//! how much of a step is HTIS pair streaming vs. GSE/FFT vs. bonded vs.
//! integration. This module gives the software engine the same visibility:
//! a [`Telemetry`] sink owned by the engine's step workspace accumulates
//! per-phase wall-clock (a [`StepProfile`]) plus counters in the units the
//! machine papers argue in (pairs streamed, pairs cut at the cutoff test,
//! neighbor rebuilds by trigger reason, FFT lines, fixed-point clamps).
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero overhead when off.** Every instrumentation point first
//!    checks [`TelemetryLevel`]; at [`TelemetryLevel::Off`] no clock is
//!    read, nothing is written, and nothing allocates (the zero-allocation
//!    tests in `tests/alloc_short_force.rs` run through the instrumented
//!    path). The only always-on cost is one integer increment per
//!    cutoff-rejected pair in the streaming kernel.
//! 2. **Testable timing.** All timestamps come from a [`Clock`]; the
//!    default [`MonotonicClock`] reads the OS monotonic clock, while
//!    [`ManualClock`] advances by a fixed tick per read so phase
//!    attribution is bitwise reproducible in tests.
//! 3. **Deterministic counters.** Counters are integer sums over the same
//!    pair/grid sets on every code path, so they are bitwise identical
//!    between the serial and fixed-chunk parallel kernels at any thread
//!    count (asserted in `tests/telemetry_determinism.rs`).
//!
//! The per-phase taxonomy maps onto the machine model's
//! `anton2_core::report::BreakdownUs` schema via
//! [`StepProfile::breakdown_us`], so measured breakdowns sit side-by-side
//! with the co-simulator's predicted ones (see EXPERIMENTS.md).

use crate::stream::RebuildReason;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One timed phase of an MD step. The taxonomy follows the Anton 2 outer
/// step: stream preparation, range-limited pair streaming, the three GSE
/// stages, bonded terms, constraint projection, integration bookkeeping,
/// and temperature control.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Cell sort + baked neighbor-list (re)construction and the per-step
    /// position re-gather — the CPU analogue of filling the import region.
    NeighborRebuild = 0,
    /// Streaming range-limited pair kernel plus the excluded-pair and 1–4
    /// correction passes (the HTIS analogue).
    ShortRange = 1,
    /// GSE charge spreading onto the grid.
    GseSpread = 2,
    /// Forward FFT, influence-function multiply, inverse FFT, and the grid
    /// energy dot product (classic Ewald lands here too).
    Fft = 3,
    /// Force interpolation from the potential grid back to atoms.
    Interpolate = 4,
    /// Bond/angle/dihedral/Urey-Bradley/improper terms.
    Bonded = 5,
    /// SETTLE and SHAKE/RATTLE projections (positions and velocities).
    Constraints = 6,
    /// Velocity kicks, the drift, kinetic-energy bookkeeping.
    Integration = 7,
    /// Thermostat applications (Berendsen/Langevin/Nosé-Hoover).
    Thermostat = 8,
    /// Shard import-region exchange: refreshing each shard's halo copy of
    /// the positions it reads but does not own (the decomposed engine's
    /// analogue of inter-node atom import).
    Exchange = 9,
}

/// Number of [`Phase`] variants (array dimension for per-phase storage).
pub const PHASE_COUNT: usize = 10;

impl Phase {
    /// All phases in display order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::NeighborRebuild,
        Phase::ShortRange,
        Phase::GseSpread,
        Phase::Fft,
        Phase::Interpolate,
        Phase::Bonded,
        Phase::Constraints,
        Phase::Integration,
        Phase::Thermostat,
        Phase::Exchange,
    ];

    /// Stable snake_case name (JSON field names use these).
    pub fn name(self) -> &'static str {
        match self {
            Phase::NeighborRebuild => "neighbor_rebuild",
            Phase::ShortRange => "short_range",
            Phase::GseSpread => "gse_spread",
            Phase::Fft => "fft",
            Phase::Interpolate => "interpolate",
            Phase::Bonded => "bonded",
            Phase::Constraints => "constraints",
            Phase::Integration => "integration",
            Phase::Thermostat => "thermostat",
            Phase::Exchange => "exchange",
        }
    }
}

/// How much the telemetry subsystem records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum TelemetryLevel {
    /// Record nothing; every instrumentation point is a predictable branch.
    #[default]
    Off,
    /// Work counters only (no clock reads).
    Counters,
    /// Counters plus per-phase wall-clock.
    Phases,
}

/// Monotonic time source for phase timing. Implementations must be cheap
/// (called ~20× per step at [`TelemetryLevel::Phases`]) and monotonic
/// non-decreasing.
pub trait Clock: Send {
    /// Nanoseconds since an arbitrary fixed origin.
    fn now_ns(&self) -> u64;
}

/// The production clock: `std::time::Instant` against a process-wide
/// anchor. Zero-sized; reads are a VDSO call, no allocation.
#[derive(Clone, Copy, Debug, Default)]
pub struct MonotonicClock;

static CLOCK_ANCHOR: OnceLock<Instant> = OnceLock::new();

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        // anton2-lint: allow(nondet) -- this *is* the sanctioned Clock
        // impl the rule points callers at; timing reads never feed physics.
        let anchor = *CLOCK_ANCHOR.get_or_init(Instant::now);
        // anton2-lint: allow(nondet) -- same: the one blessed wall-clock read.
        Instant::now().duration_since(anchor).as_nanos() as u64
    }
}

/// Deterministic test clock: every read advances a shared counter by a
/// fixed tick, so the k-th clock read always returns `k · tick_ns`
/// regardless of wall time. Phase attribution becomes a pure function of
/// the instrumentation-point sequence.
#[derive(Debug)]
pub struct ManualClock {
    reads: AtomicU64,
    tick_ns: u64,
}

impl ManualClock {
    pub fn new(tick_ns: u64) -> Self {
        ManualClock {
            reads: AtomicU64::new(0),
            tick_ns,
        }
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.reads.fetch_add(1, Ordering::Relaxed) * self.tick_ns
    }
}

/// Hardware-meaningful work counters, accumulated across steps. All fields
/// are exact integer sums over deterministic sets, so serial and parallel
/// evaluation agree bitwise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Pairs that passed the cutoff test and were evaluated by the
    /// range-limited kernel.
    pub pairs_evaluated: u64,
    /// Candidate pairs in the neighbor list rejected by the per-step
    /// cutoff test (the list's skin makes these unavoidable).
    pub pairs_cut: u64,
    /// Total stream/neighbor-list rebuilds.
    pub neighbor_rebuilds: u64,
    /// Rebuilds triggered by first use (cold stream).
    pub rebuilds_initial: u64,
    /// Rebuilds triggered by an atom drifting past skin/2.
    pub rebuilds_skin: u64,
    /// Rebuilds triggered by a box change (barostat rescale).
    pub rebuilds_box: u64,
    /// Rebuilds forced by explicit invalidation (checkpoint restore, …).
    pub rebuilds_invalidated: u64,
    /// 1D FFT lines executed across all 3D transforms.
    pub fft_lines: u64,
    /// Fixed-point saturation events: pair-stream force components and row
    /// energy/virial sums beyond ±`MAX_FORCE`, plus whatever a co-simulated
    /// machine's accumulators report through
    /// `Engine::record_fixedpoint_clamps`.
    pub fixedpoint_clamps: u64,
    /// Numerical-health watchdog evaluations (NaN/inf force scan +
    /// energy-drift check) performed by `Engine::try_step`.
    pub watchdog_checks: u64,
    /// Link-level retransmissions observed by the network model during a
    /// co-simulated run (fed via [`Telemetry::count_net_retries`]; always 0
    /// on pure engine runs).
    pub net_retries: u64,
    /// Routes recomputed around dead fabric during a co-simulated run (fed
    /// via [`Telemetry::count_net_reroutes`]; always 0 on pure engine runs).
    pub net_reroutes: u64,
    /// Always 0 since the patch path was deleted; kept until a
    /// `benchmark`-type PR retires `md.stream.rows_patched_share`.
    pub rows_patched: u64,
    /// Stream rows reconstructed by a list rebuild (cell sort + scan at
    /// `cutoff + skin` + CSR assembly).
    pub rows_rebuilt: u64,
    /// Atoms whose cell assignment changed between consecutive rebuilds
    /// (cell-membership churn; 0 on first builds and on the all-pairs
    /// fallback).
    pub cell_churn: u64,
    /// Grid stencil points accumulated by GSE charge spreading (charged
    /// atoms × separable stencil volume).
    pub spread_points: u64,
    /// Grid stencil points read by GSE force interpolation.
    pub interp_points: u64,
    /// Atom-plane bins visited by the spreading scatter: one per (charged
    /// atom, x-stencil slot) column, identical whether the serial walk or
    /// the counting-sort binned parallel walk covered them.
    pub gse_bins_visited: u64,
    /// Atom positions copied into shard import regions (halo reads): one
    /// per (shard, imported slot, step). 0 on single-image runs.
    pub atoms_imported: u64,
    /// Atom positions served out of a shard's owned set to other shards'
    /// import regions; the export side of the same traffic.
    pub atoms_exported: u64,
    /// Bytes moved by the import exchange (24 B per imported position).
    pub exchange_bytes: u64,
}

impl Counters {
    /// Component-wise difference (`self` is the later snapshot).
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            pairs_evaluated: self.pairs_evaluated - earlier.pairs_evaluated,
            pairs_cut: self.pairs_cut - earlier.pairs_cut,
            neighbor_rebuilds: self.neighbor_rebuilds - earlier.neighbor_rebuilds,
            rebuilds_initial: self.rebuilds_initial - earlier.rebuilds_initial,
            rebuilds_skin: self.rebuilds_skin - earlier.rebuilds_skin,
            rebuilds_box: self.rebuilds_box - earlier.rebuilds_box,
            rebuilds_invalidated: self.rebuilds_invalidated - earlier.rebuilds_invalidated,
            fft_lines: self.fft_lines - earlier.fft_lines,
            fixedpoint_clamps: self.fixedpoint_clamps - earlier.fixedpoint_clamps,
            watchdog_checks: self.watchdog_checks - earlier.watchdog_checks,
            net_retries: self.net_retries - earlier.net_retries,
            net_reroutes: self.net_reroutes - earlier.net_reroutes,
            rows_patched: self.rows_patched - earlier.rows_patched,
            rows_rebuilt: self.rows_rebuilt - earlier.rows_rebuilt,
            cell_churn: self.cell_churn - earlier.cell_churn,
            spread_points: self.spread_points - earlier.spread_points,
            interp_points: self.interp_points - earlier.interp_points,
            gse_bins_visited: self.gse_bins_visited - earlier.gse_bins_visited,
            atoms_imported: self.atoms_imported - earlier.atoms_imported,
            atoms_exported: self.atoms_exported - earlier.atoms_exported,
            exchange_bytes: self.exchange_bytes - earlier.exchange_bytes,
        }
    }
}

/// Per-phase wall-clock in microseconds, with stable JSON field names.
/// Produced from a [`StepProfile`]; the detailed sibling of the coarse
/// [`MeasuredBreakdownUs`].
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct PhaseBreakdownUs {
    pub neighbor_rebuild: f64,
    pub short_range: f64,
    pub gse_spread: f64,
    pub fft: f64,
    pub interpolate: f64,
    pub bonded: f64,
    pub constraints: f64,
    pub integration: f64,
    pub thermostat: f64,
    pub exchange: f64,
}

impl PhaseBreakdownUs {
    /// Sum of all phases, µs.
    pub fn total(&self) -> f64 {
        self.neighbor_rebuild
            + self.short_range
            + self.gse_spread
            + self.fft
            + self.interpolate
            + self.bonded
            + self.constraints
            + self.integration
            + self.thermostat
            + self.exchange
    }
}

/// Coarse step breakdown using the *same field names* as the machine
/// model's `anton2_core::report::BreakdownUs`, so a measured engine profile
/// and a simulated machine profile serialize to directly comparable JSON:
///
/// * `import_comm` ← stream preparation (neighbor rebuild + re-gather)
///   plus the shard import-region exchange,
/// * `htis`        ← range-limited pair streaming,
/// * `bonded`      ← bonded terms,
/// * `kspace`      ← GSE spread + FFT + interpolation,
/// * `integrate`   ← constraints + integration + thermostat,
/// * `barriers`    ← 0 (the serial engine has no synchronization waits).
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct MeasuredBreakdownUs {
    pub import_comm: f64,
    pub htis: f64,
    pub bonded: f64,
    pub kspace: f64,
    pub integrate: f64,
    pub barriers: f64,
}

/// Accumulated telemetry over some number of steps: per-phase nanoseconds
/// plus [`Counters`]. Snapshot-and-diff friendly (`Copy`, [`StepProfile::since`]),
/// and fully serializable so checkpoints carry it: a resumed run's counters
/// continue from the interrupted run's exact values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepProfile {
    /// Steps accumulated into this profile.
    pub steps: u64,
    phase_ns: [u64; PHASE_COUNT],
    /// Work counters accumulated over the same steps.
    pub counters: Counters,
}

impl StepProfile {
    /// Accumulated nanoseconds for `phase`.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.phase_ns[phase as usize]
    }

    /// Sum over all phases, ns.
    pub fn total_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// Difference profile (`self` is the later snapshot) — the telemetry of
    /// exactly the steps between the two snapshots.
    pub fn since(&self, earlier: &StepProfile) -> StepProfile {
        let mut phase_ns = [0u64; PHASE_COUNT];
        for (out, (now, then)) in phase_ns
            .iter_mut()
            .zip(self.phase_ns.iter().zip(&earlier.phase_ns))
        {
            *out = now - then;
        }
        StepProfile {
            steps: self.steps - earlier.steps,
            phase_ns,
            counters: self.counters.since(&earlier.counters),
        }
    }

    /// Detailed per-phase breakdown in µs (totals over the profiled steps).
    pub fn phases_us(&self) -> PhaseBreakdownUs {
        let us = |p: Phase| self.phase_ns(p) as f64 * 1e-3;
        PhaseBreakdownUs {
            neighbor_rebuild: us(Phase::NeighborRebuild),
            short_range: us(Phase::ShortRange),
            gse_spread: us(Phase::GseSpread),
            fft: us(Phase::Fft),
            interpolate: us(Phase::Interpolate),
            bonded: us(Phase::Bonded),
            constraints: us(Phase::Constraints),
            integration: us(Phase::Integration),
            thermostat: us(Phase::Thermostat),
            exchange: us(Phase::Exchange),
        }
    }

    /// Coarse *per-step* breakdown in the `BreakdownUs` schema of the
    /// machine model (averaged over the profiled steps; zero steps give an
    /// all-zero breakdown).
    pub fn breakdown_us(&self) -> MeasuredBreakdownUs {
        if self.steps == 0 {
            return MeasuredBreakdownUs::default();
        }
        let per_step = |ns: u64| ns as f64 * 1e-3 / self.steps as f64;
        MeasuredBreakdownUs {
            import_comm: per_step(
                self.phase_ns(Phase::NeighborRebuild) + self.phase_ns(Phase::Exchange),
            ),
            htis: per_step(self.phase_ns(Phase::ShortRange)),
            bonded: per_step(self.phase_ns(Phase::Bonded)),
            kspace: per_step(
                self.phase_ns(Phase::GseSpread)
                    + self.phase_ns(Phase::Fft)
                    + self.phase_ns(Phase::Interpolate),
            ),
            integrate: per_step(
                self.phase_ns(Phase::Constraints)
                    + self.phase_ns(Phase::Integration)
                    + self.phase_ns(Phase::Thermostat),
            ),
            barriers: 0.0,
        }
    }
}

/// Opaque timestamp returned by [`Telemetry::start`]; pass it back to
/// [`Telemetry::stop`]. Zero when timing is disabled.
#[derive(Clone, Copy, Debug)]
pub struct PhaseToken(u64);

/// The telemetry sink: level, clock, and the accumulating profile. Owned by
/// the engine's `StepWorkspace`; constructing one at [`TelemetryLevel::Off`]
/// performs no heap allocation (the default clock is zero-sized).
pub struct Telemetry {
    level: TelemetryLevel,
    /// `None` means [`MonotonicClock`]; boxing is reserved for injected
    /// clocks so the common construction path stays allocation-free.
    clock: Option<Box<dyn Clock>>,
    profile: StepProfile,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::off()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("level", &self.level)
            .field("profile", &self.profile)
            .finish()
    }
}

impl Telemetry {
    /// A sink at `level` with the default monotonic clock. No allocation.
    pub fn new(level: TelemetryLevel) -> Self {
        Telemetry {
            level,
            clock: None,
            profile: StepProfile::default(),
        }
    }

    /// A disabled sink: every instrumentation point is a cheap branch.
    pub fn off() -> Self {
        Telemetry::new(TelemetryLevel::Off)
    }

    /// A sink at `level` reading time from `clock` (tests inject
    /// [`ManualClock`] here).
    pub fn with_clock(level: TelemetryLevel, clock: Box<dyn Clock>) -> Self {
        Telemetry {
            level,
            clock: Some(clock),
            profile: StepProfile::default(),
        }
    }

    /// The configured level.
    pub fn level(&self) -> TelemetryLevel {
        self.level
    }

    /// The accumulated profile since construction or the last [`Telemetry::reset`].
    pub fn profile(&self) -> &StepProfile {
        &self.profile
    }

    /// Zero the accumulated profile (level and clock unchanged).
    pub fn reset(&mut self) {
        self.profile = StepProfile::default();
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        match &self.clock {
            None => MonotonicClock.now_ns(),
            Some(c) => c.now_ns(),
        }
    }

    /// Whether phase timing is active (clock reads happen).
    #[inline]
    pub fn timing(&self) -> bool {
        self.level == TelemetryLevel::Phases
    }

    /// Begin timing a phase. Free (no clock read) unless
    /// [`TelemetryLevel::Phases`].
    #[inline]
    pub fn start(&self) -> PhaseToken {
        if self.timing() {
            PhaseToken(self.now_ns())
        } else {
            PhaseToken(0)
        }
    }

    /// Attribute the time since `token` to `phase`.
    #[inline]
    pub fn stop(&mut self, phase: Phase, token: PhaseToken) {
        if self.timing() {
            let now = self.now_ns();
            self.profile.phase_ns[phase as usize] += now.saturating_sub(token.0);
        }
    }

    /// Mark one completed step.
    #[inline]
    pub fn step_done(&mut self) {
        if self.level != TelemetryLevel::Off {
            self.profile.steps += 1;
        }
    }

    /// Record one range-limited evaluation pass: `evaluated` pairs inside
    /// the cutoff, `cut` candidates rejected by the cutoff test.
    #[inline]
    pub fn count_pairs(&mut self, evaluated: u64, cut: u64) {
        if self.level != TelemetryLevel::Off {
            self.profile.counters.pairs_evaluated += evaluated;
            self.profile.counters.pairs_cut += cut;
        }
    }

    /// Record a stream/neighbor-list rebuild and its trigger.
    #[inline]
    pub fn count_rebuild(&mut self, reason: RebuildReason) {
        if self.level != TelemetryLevel::Off {
            let c = &mut self.profile.counters;
            c.neighbor_rebuilds += 1;
            match reason {
                RebuildReason::Initial => c.rebuilds_initial += 1,
                RebuildReason::SkinExceeded => c.rebuilds_skin += 1,
                RebuildReason::BoxChanged => c.rebuilds_box += 1,
                RebuildReason::Invalidated => c.rebuilds_invalidated += 1,
            }
        }
    }

    /// Record the size of a neighbor-list rebuild: `rebuilt` rows
    /// reconstructed from a cell scan and `churn` atoms whose cell
    /// assignment changed since the previous build.
    #[inline]
    pub fn count_rows(&mut self, rebuilt: u64, churn: u64) {
        if self.level != TelemetryLevel::Off {
            self.profile.counters.rows_rebuilt += rebuilt;
            self.profile.counters.cell_churn += churn;
        }
    }

    /// Record `lines` 1D FFT line transforms.
    #[inline]
    pub fn count_fft_lines(&mut self, lines: u64) {
        if self.level != TelemetryLevel::Off {
            self.profile.counters.fft_lines += lines;
        }
    }

    /// Record one GSE spreading pass: `points` grid stencil points
    /// accumulated and `bins` atom-plane bins visited. Both are exact
    /// functions of the charged-atom count and the stencil shape, so the
    /// counters stay bitwise serial ≡ parallel.
    #[inline]
    pub fn count_gse_spread(&mut self, points: u64, bins: u64) {
        if self.level != TelemetryLevel::Off {
            self.profile.counters.spread_points += points;
            self.profile.counters.gse_bins_visited += bins;
        }
    }

    /// Record one GSE interpolation pass reading `points` grid stencil
    /// points.
    #[inline]
    pub fn count_gse_interp(&mut self, points: u64) {
        if self.level != TelemetryLevel::Off {
            self.profile.counters.interp_points += points;
        }
    }

    /// Record one shard import-region exchange pass: `imported` positions
    /// copied into halo regions, `exported` positions served out of owned
    /// sets, `bytes` moved. All three are exact functions of the static
    /// exchange plan, so they are bitwise identical at any thread count.
    #[inline]
    pub fn count_exchange(&mut self, imported: u64, exported: u64, bytes: u64) {
        if self.level != TelemetryLevel::Off {
            self.profile.counters.atoms_imported += imported;
            self.profile.counters.atoms_exported += exported;
            self.profile.counters.exchange_bytes += bytes;
        }
    }

    /// Record `clamps` fixed-point accumulator saturation events.
    #[inline]
    pub fn count_fixedpoint_clamps(&mut self, clamps: u64) {
        if self.level != TelemetryLevel::Off {
            self.profile.counters.fixedpoint_clamps += clamps;
        }
    }

    /// Record one numerical-health watchdog evaluation.
    #[inline]
    pub fn count_watchdog_check(&mut self) {
        if self.level != TelemetryLevel::Off {
            self.profile.counters.watchdog_checks += 1;
        }
    }

    /// Record `retries` link-level retransmissions from a co-simulated
    /// network phase.
    #[inline]
    pub fn count_net_retries(&mut self, retries: u64) {
        if self.level != TelemetryLevel::Off {
            self.profile.counters.net_retries += retries;
        }
    }

    /// Record `reroutes` dead-fabric route recomputations from a
    /// co-simulated network phase.
    #[inline]
    pub fn count_net_reroutes(&mut self, reroutes: u64) {
        if self.level != TelemetryLevel::Off {
            self.profile.counters.net_reroutes += reroutes;
        }
    }

    /// Replace the accumulated profile wholesale — the checkpoint-restore
    /// path, so a resumed run's telemetry continues bit-exactly from the
    /// interrupted run's. Lives here because profile mutation is
    /// (lint-enforced) a telemetry-module privilege.
    pub fn restore_profile(&mut self, profile: StepProfile) {
        self.profile = profile;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_is_deterministic() {
        let c = ManualClock::new(10);
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 10);
        assert_eq!(c.now_ns(), 20);
    }

    #[test]
    fn monotonic_clock_is_monotonic() {
        let c = MonotonicClock;
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn off_level_records_nothing() {
        let mut t = Telemetry::off();
        let tok = t.start();
        t.stop(Phase::ShortRange, tok);
        t.count_pairs(100, 50);
        t.count_rebuild(RebuildReason::Initial);
        t.count_fft_lines(64);
        t.step_done();
        assert_eq!(t.profile().total_ns(), 0);
        assert_eq!(t.profile().counters, Counters::default());
        assert_eq!(t.profile().steps, 0);
    }

    #[test]
    fn counters_level_counts_without_clock_reads() {
        let mut t = Telemetry::with_clock(TelemetryLevel::Counters, Box::new(ManualClock::new(7)));
        let tok = t.start();
        t.stop(Phase::Fft, tok);
        t.count_pairs(3, 1);
        assert_eq!(t.profile().total_ns(), 0, "no clock reads at Counters");
        assert_eq!(t.profile().counters.pairs_evaluated, 3);
        assert_eq!(t.profile().counters.pairs_cut, 1);
    }

    #[test]
    fn phases_attribute_time_with_manual_clock() {
        let mut t = Telemetry::with_clock(TelemetryLevel::Phases, Box::new(ManualClock::new(5)));
        // Reads: start → 0, stop → 5: 5 ns to ShortRange.
        let tok = t.start();
        t.stop(Phase::ShortRange, tok);
        // Reads: start → 10, stop → 15: 5 ns to Fft.
        let tok = t.start();
        t.stop(Phase::Fft, tok);
        assert_eq!(t.profile().phase_ns(Phase::ShortRange), 5);
        assert_eq!(t.profile().phase_ns(Phase::Fft), 5);
        assert_eq!(t.profile().total_ns(), 10);
    }

    #[test]
    fn profile_since_diffs_all_fields() {
        let mut t = Telemetry::with_clock(TelemetryLevel::Phases, Box::new(ManualClock::new(1)));
        let tok = t.start();
        t.stop(Phase::Bonded, tok);
        t.count_pairs(10, 4);
        t.step_done();
        let snap = *t.profile();
        let tok = t.start();
        t.stop(Phase::Bonded, tok);
        t.count_pairs(7, 2);
        t.count_rebuild(RebuildReason::BoxChanged);
        t.step_done();
        let d = t.profile().since(&snap);
        assert_eq!(d.steps, 1);
        assert_eq!(d.counters.pairs_evaluated, 7);
        assert_eq!(d.counters.pairs_cut, 2);
        assert_eq!(d.counters.rebuilds_box, 1);
        assert_eq!(d.phase_ns(Phase::Bonded), 1);
    }

    #[test]
    fn breakdown_maps_onto_machine_schema() {
        let mut t = Telemetry::with_clock(TelemetryLevel::Phases, Box::new(ManualClock::new(100)));
        for phase in Phase::ALL {
            let tok = t.start();
            t.stop(phase, tok); // 100 ns each
        }
        t.step_done();
        let b = t.profile().breakdown_us();
        assert!(
            (b.import_comm - 0.2).abs() < 1e-12,
            "neighbor rebuild + exchange"
        );
        assert!((b.htis - 0.1).abs() < 1e-12);
        assert!((b.bonded - 0.1).abs() < 1e-12);
        assert!((b.kspace - 0.3).abs() < 1e-12, "spread+fft+interp");
        assert!(
            (b.integrate - 0.3).abs() < 1e-12,
            "constraints+integ+thermo"
        );
        assert_eq!(b.barriers, 0.0);
        let detail = t.profile().phases_us();
        assert!((detail.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fault_and_watchdog_counters_gate_on_level() {
        let mut off = Telemetry::off();
        off.count_watchdog_check();
        off.count_net_retries(3);
        off.count_net_reroutes(2);
        off.count_gse_spread(1000, 10);
        off.count_gse_interp(1000);
        off.count_exchange(5, 5, 120);
        assert_eq!(off.profile().counters, Counters::default());

        let mut on = Telemetry::new(TelemetryLevel::Counters);
        on.count_watchdog_check();
        on.count_watchdog_check();
        on.count_net_retries(3);
        on.count_net_reroutes(2);
        on.count_gse_spread(1000, 10);
        on.count_gse_interp(900);
        on.count_exchange(7, 7, 168);
        let c = on.profile().counters;
        assert_eq!(c.watchdog_checks, 2);
        assert_eq!(c.net_retries, 3);
        assert_eq!(c.net_reroutes, 2);
        assert_eq!(c.spread_points, 1000);
        assert_eq!(c.gse_bins_visited, 10);
        assert_eq!(c.interp_points, 900);
        assert_eq!(c.atoms_imported, 7);
        assert_eq!(c.atoms_exported, 7);
        assert_eq!(c.exchange_bytes, 168);
        let d = c.since(&Counters::default());
        assert_eq!(d, c);
    }

    #[test]
    fn step_profile_roundtrips_through_json_bitwise() {
        let mut t = Telemetry::with_clock(TelemetryLevel::Phases, Box::new(ManualClock::new(3)));
        let tok = t.start();
        t.stop(Phase::ShortRange, tok);
        t.count_pairs(11, 5);
        t.count_watchdog_check();
        t.step_done();
        let profile = *t.profile();
        let json = serde_json::to_string(&profile).unwrap();
        let back: StepProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, profile);
    }

    #[test]
    fn restore_profile_resumes_accumulation() {
        let mut a = Telemetry::new(TelemetryLevel::Counters);
        a.count_pairs(100, 10);
        a.step_done();
        let snapshot = *a.profile();
        let mut b = Telemetry::new(TelemetryLevel::Counters);
        b.restore_profile(snapshot);
        b.count_pairs(1, 1);
        b.step_done();
        a.count_pairs(1, 1);
        a.step_done();
        assert_eq!(a.profile(), b.profile());
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), PHASE_COUNT);
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(dedup, names);
    }
}
