//! The serial reference MD engine.
//!
//! Composes neighbor lists, the nonbonded pair kernel, bonded terms, GSE (or
//! classic Ewald) k-space electrostatics, SETTLE/SHAKE constraints, and
//! velocity-Verlet integration with Anton-style RESPA multiple timestepping.
//! The machine co-simulator in `anton2-core` runs the same arithmetic
//! distributed over simulated nodes; this engine is its correctness
//! reference (experiment F7 in DESIGN.md).

use crate::bonded::{all_bonded_forces, all_bonded_forces_parallel, BONDED_CHUNKS};
use crate::constraints::ConstraintSet;
use crate::ewald::{background_energy, self_energy, EwaldKSpace};
use crate::forcefield::PairTable;
use crate::gse::{Gse, GseParams, GseWorkspace};
use crate::integrate::{drift, langevin_o_step, RespaSchedule};
use crate::observables::EnergyLedger;
use crate::pairkernel::{excluded_corrections, scaled14_corrections, NonbondedEnergy};
use crate::pbc::PbcBox;
use crate::pressure::{bonded_virial, pressure_atm, BerendsenBarostat};
use crate::settle::{settle_positions, settle_velocities, SettleParams};
use crate::shard::{ShardGrid, ShardSet, ShardSummary};
use crate::stream::{nonbonded_forces_streamed_profiled, NonbondedWorkspace};
use crate::system::System;
use crate::telemetry::{
    Clock, Counters, MeasuredBreakdownUs, Phase, PhaseBreakdownUs, StepProfile, Telemetry,
    TelemetryLevel,
};
use crate::thermostat::{Berendsen, NoseHooverChain};
use crate::trajectory::{Checkpoint, CHECKPOINT_VERSION};
use crate::units::{fs_to_internal, us_per_day};
use crate::vec3::Vec3;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

/// Which long-range electrostatics solver the engine uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KspaceMethod {
    /// Gaussian-split Ewald on the FFT grid (production, Anton's family).
    Gse,
    /// Direct reciprocal sum (slow; for validation).
    ClassicEwald,
    /// No k-space term (neutral systems / LJ fluids).
    None,
}

/// Threading policy for the force pipeline.
///
/// Results never depend on `RAYON_NUM_THREADS`. The pair stream
/// accumulates in fixed point, so its serial, parallel and sharded paths
/// are bitwise identical; the k-space pipeline is bitwise identical
/// between the serial and parallel paths by fixed plane and line order;
/// the bonded kernel reduces a fixed number of chunks in chunk order and
/// differs from serial only by floating-point regrouping (≲1e-12
/// relative). See "Threading and determinism model" in DESIGN.md.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Parallel kernels once the system is large enough to amortize the
    /// fork/join overhead (currently ≥ 4096 atoms), serial below.
    #[default]
    Auto,
    /// Always single-threaded (reference results, profiling baselines).
    Serial,
    /// Parallel kernels regardless of system size.
    Parallel,
}

/// Thermostat selection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Thermostat {
    None,
    Berendsen { t_kelvin: f64, tau_fs: f64 },
    Langevin { t_kelvin: f64, gamma_per_ps: f64 },
    NoseHoover { t_kelvin: f64, tau_fs: f64 },
}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Timestep, fs.
    pub dt_fs: f64,
    pub respa: RespaSchedule,
    pub kspace: KspaceMethod,
    pub thermostat: Thermostat,
    /// Use SETTLE for rigid waters (otherwise SHAKE handles them too).
    pub use_settle: bool,
    /// SHAKE/RATTLE relative tolerance.
    pub shake_tol: f64,
    /// RNG seed for stochastic thermostats.
    pub seed: u64,
    /// Optional pressure coupling, applied every `barostat_period` steps.
    pub barostat: Option<BerendsenBarostat>,
    pub barostat_period: u32,
    /// Threading policy for the force kernels.
    pub parallelism: Parallelism,
    /// Spatial decomposition of the box into an ℓ×m×n shard grid. The
    /// default is the single-image decomposition (no sharding); any other
    /// grid runs the decomposed engine, which is bitwise identical to the
    /// single-image one at every shard count (see `crate::shard`).
    pub decomposition: ShardGrid,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            dt_fs: 2.0,
            respa: RespaSchedule::default(),
            kspace: KspaceMethod::Gse,
            thermostat: Thermostat::None,
            use_settle: true,
            shake_tol: 1e-8,
            seed: 0,
            barostat: None,
            barostat_period: 10,
            parallelism: Parallelism::Auto,
            decomposition: ShardGrid::single(),
        }
    }
}

impl EngineConfig {
    /// Conservative settings for quick tests: 1 fs, k-space every step.
    pub fn quick() -> Self {
        EngineConfig {
            dt_fs: 1.0,
            respa: RespaSchedule { kspace_interval: 1 },
            ..Default::default()
        }
    }
}

/// Why an [`EngineBuilder::build`] call or a recoverable runtime check was
/// rejected. Configuration variants are fixable by the caller; checkpoint
/// variants reject a bad restart before it can corrupt a run; watchdog
/// variants report numerical-health failures from [`Engine::try_step`].
/// Nothing here panics.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// No [`System`] was supplied to the builder.
    MissingSystem,
    /// The system has zero atoms.
    EmptySystem,
    /// `dt_fs` must be finite and in `(0, 100]` fs.
    InvalidTimestep(f64),
    /// SHAKE/RATTLE tolerance must be finite and positive.
    InvalidShakeTol(f64),
    /// RESPA `kspace_interval` must be ≥ 1.
    InvalidKspaceInterval(u32),
    /// `barostat_period` must be ≥ 1 when a barostat is configured.
    InvalidBarostatPeriod(u32),
    /// A thermostat parameter is out of range; the message names it.
    InvalidThermostat(&'static str),
    /// The requested shard grid cannot be hosted by the system's box at
    /// its cutoff + skin; the message states the violated constraint and
    /// what would satisfy it.
    Decomposition(String),
    /// The checkpoint's format version is not the one this build reads.
    CheckpointVersion { found: u32, expected: u32 },
    /// The checkpoint is internally inconsistent with the engine it is
    /// being restored into; the message names the mismatched piece.
    CheckpointMismatch(&'static str),
    /// The checkpoint's content digest does not match its payload
    /// (in-place corruption that still parsed as valid JSON).
    CheckpointCorrupt,
    /// The watchdog found a non-finite force component on `atom`.
    NonFiniteForce { step: u64, atom: usize },
    /// The watchdog found that the step's pair stream saturated `clamps`
    /// fixed-point components (a pair force beyond `MAX_FORCE`, or a NaN),
    /// the first in `atom`'s row. The sink clamps such a force to a finite
    /// value, so the non-finite scan alone would not see it.
    SaturatedForce { step: u64, atom: usize, clamps: u64 },
    /// The watchdog found total-energy drift beyond the configured limit
    /// (both in kcal/mol per atom, measured from the armed reference).
    EnergyDrift { step: u64, drift: f64, limit: f64 },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::MissingSystem => write!(f, "no system supplied to the builder"),
            EngineError::EmptySystem => write!(f, "system has zero atoms"),
            EngineError::InvalidTimestep(dt) => {
                write!(f, "timestep {dt} fs must be finite and in (0, 100]")
            }
            EngineError::InvalidShakeTol(tol) => {
                write!(f, "SHAKE tolerance {tol} must be finite and positive")
            }
            EngineError::InvalidKspaceInterval(k) => {
                write!(f, "RESPA kspace_interval {k} must be >= 1")
            }
            EngineError::InvalidBarostatPeriod(p) => {
                write!(f, "barostat_period {p} must be >= 1")
            }
            EngineError::InvalidThermostat(what) => write!(f, "invalid thermostat: {what}"),
            EngineError::Decomposition(what) => write!(f, "invalid decomposition: {what}"),
            EngineError::CheckpointVersion { found, expected } => {
                write!(f, "checkpoint version {found}, this build reads {expected}")
            }
            EngineError::CheckpointMismatch(what) => {
                write!(f, "checkpoint does not match this engine: {what}")
            }
            EngineError::CheckpointCorrupt => {
                write!(f, "checkpoint digest mismatch: content corrupted")
            }
            EngineError::NonFiniteForce { step, atom } => {
                write!(f, "non-finite force on atom {atom} after step {step}")
            }
            EngineError::SaturatedForce { step, atom, clamps } => write!(
                f,
                "pair force on atom {atom} out of fixed-point range after step {step} \
                 ({clamps} components saturated)"
            ),
            EngineError::EnergyDrift { step, drift, limit } => {
                write!(
                    f,
                    "energy drift {drift} kcal/mol/atom exceeds limit {limit} after step {step}"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Numerical-health watchdog settings for [`Engine::try_step`]. The
/// watchdog scans the combined force array for NaN/inf components after
/// every step, fails a step whose pair stream saturated the fixed-point
/// range (a clamped force is finite, so the scan would miss it), and
/// tracks total-energy drift against a reference armed at the first check
/// (re-armed after a checkpoint restore). It is pure observation: a
/// passing check leaves the trajectory bitwise untouched.
#[derive(Clone, Copy, Debug)]
pub struct WatchdogConfig {
    /// Hard limit on `|E(t) − E(ref)| / N`, kcal/mol per atom. Use
    /// `f64::INFINITY` to keep only the force guards (e.g. for
    /// thermostatted runs where total energy is not conserved).
    pub max_drift_kcal_per_atom: f64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        // Catastrophic-blowup detector: far beyond honest NVE drift
        // (~1e-2 kcal/mol/atom over test-length runs), far below the
        // hundreds produced by an exploding integrator.
        WatchdogConfig {
            max_drift_kcal_per_atom: 50.0,
        }
    }
}

/// Fluent constructor for [`Engine`]: choose a system, override pieces of
/// [`EngineConfig`], pick a [`TelemetryLevel`], then [`EngineBuilder::build`].
/// Validation happens once, in `build`, returning [`EngineError`] instead of
/// panicking mid-run.
///
/// ```
/// use anton2_md::builders::water_box;
/// use anton2_md::engine::Engine;
/// use anton2_md::telemetry::TelemetryLevel;
///
/// let engine = Engine::builder()
///     .system(water_box(3, 3, 3, 1))
///     .quick()
///     .telemetry(TelemetryLevel::Counters)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(engine.step_count(), 0);
/// ```
pub struct EngineBuilder {
    system: Option<System>,
    cfg: EngineConfig,
    telemetry: TelemetryLevel,
    clock: Option<Box<dyn Clock>>,
    watchdog: Option<WatchdogConfig>,
    resume: Option<Checkpoint>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            system: None,
            cfg: EngineConfig::default(),
            telemetry: TelemetryLevel::Off,
            clock: None,
            watchdog: None,
            resume: None,
        }
    }
}

impl EngineBuilder {
    /// The system to simulate (required).
    pub fn system(mut self, system: System) -> Self {
        self.system = Some(system);
        self
    }

    /// Replace the whole configuration at once (escape hatch for call sites
    /// that already assembled an [`EngineConfig`]).
    pub fn config(mut self, cfg: EngineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Conservative test settings: 1 fs timestep, k-space every step
    /// (see [`EngineConfig::quick`]).
    pub fn quick(mut self) -> Self {
        self.cfg = EngineConfig {
            dt_fs: 1.0,
            respa: RespaSchedule { kspace_interval: 1 },
            ..self.cfg
        };
        self
    }

    /// Timestep in femtoseconds.
    pub fn dt_fs(mut self, dt_fs: f64) -> Self {
        self.cfg.dt_fs = dt_fs;
        self
    }

    /// RESPA multiple-timestepping schedule.
    pub fn respa(mut self, respa: RespaSchedule) -> Self {
        self.cfg.respa = respa;
        self
    }

    /// Long-range electrostatics method.
    pub fn kspace(mut self, kspace: KspaceMethod) -> Self {
        self.cfg.kspace = kspace;
        self
    }

    /// Thermostat selection.
    pub fn thermostat(mut self, thermostat: Thermostat) -> Self {
        self.cfg.thermostat = thermostat;
        self
    }

    /// Use SETTLE for rigid waters (default true).
    pub fn use_settle(mut self, use_settle: bool) -> Self {
        self.cfg.use_settle = use_settle;
        self
    }

    /// SHAKE/RATTLE relative tolerance.
    pub fn shake_tol(mut self, shake_tol: f64) -> Self {
        self.cfg.shake_tol = shake_tol;
        self
    }

    /// RNG seed for stochastic thermostats.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Pressure coupling, applied every `period` steps.
    pub fn barostat(mut self, barostat: BerendsenBarostat, period: u32) -> Self {
        self.cfg.barostat = Some(barostat);
        self.cfg.barostat_period = period;
        self
    }

    /// Threading policy for the force kernels.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.cfg.parallelism = parallelism;
        self
    }

    /// Decompose the box into an ℓ×m×n grid of spatial shards, each owning
    /// its atoms and importing a halo of neighbors every step (the paper's
    /// NT/half-shell motion, executed in memory). The decomposed engine is
    /// bitwise identical to the single-image default at any shard count;
    /// [`EngineBuilder::build`] validates the grid against the box geometry
    /// and cutoff, returning [`EngineError::Decomposition`] with an
    /// actionable message when it cannot be hosted.
    pub fn decomposition(mut self, grid: ShardGrid) -> Self {
        self.cfg.decomposition = grid;
        self
    }

    /// How much the engine's telemetry sink records (default
    /// [`TelemetryLevel::Off`], which compiles instrumentation points down
    /// to predictable branches).
    pub fn telemetry(mut self, level: TelemetryLevel) -> Self {
        self.telemetry = level;
        self
    }

    /// Inject a custom [`Clock`] for phase timing (tests pass
    /// [`crate::telemetry::ManualClock`] for deterministic attribution).
    pub fn clock(mut self, clock: Box<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Enable the numerical-health watchdog for [`Engine::try_step`].
    pub fn watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = Some(watchdog);
        self
    }

    /// Resume from a checkpoint instead of starting fresh: after validating
    /// the configuration, [`EngineBuilder::build`] restores every piece of
    /// dynamic state from `cp` (positions, velocities, cached forces,
    /// thermostat RNG, neighbor-list epoch, telemetry) so the continued
    /// trajectory is bitwise identical to the uninterrupted one. The
    /// supplied [`EngineBuilder::system`] provides the topology; its
    /// positions/velocities are overwritten. The builder's `dt_fs` must
    /// match the checkpoint's.
    ///
    /// Any version other than [`CHECKPOINT_VERSION`] is rejected with
    /// [`EngineError::CheckpointVersion`]. Single-image and decomposed
    /// engines write the same format; shard images, when present, must pass
    /// the consistency barrier
    /// ([`crate::trajectory::Checkpoint::validate_shards`]). The global
    /// arrays are authoritative on restore, so a sharded run can resume
    /// from a single-image checkpoint and vice versa.
    pub fn resume_from(mut self, cp: Checkpoint) -> Self {
        self.resume = Some(cp);
        self
    }

    /// Validate the configuration and build the engine (computing initial
    /// forces). The only fallible step in the engine's lifecycle.
    pub fn build(self) -> Result<Engine, EngineError> {
        let system = self.system.ok_or(EngineError::MissingSystem)?;
        if system.n_atoms() == 0 {
            return Err(EngineError::EmptySystem);
        }
        let cfg = self.cfg;
        if !cfg.dt_fs.is_finite() || cfg.dt_fs <= 0.0 || cfg.dt_fs > 100.0 {
            return Err(EngineError::InvalidTimestep(cfg.dt_fs));
        }
        if !cfg.shake_tol.is_finite() || cfg.shake_tol <= 0.0 {
            return Err(EngineError::InvalidShakeTol(cfg.shake_tol));
        }
        if cfg.respa.kspace_interval == 0 {
            return Err(EngineError::InvalidKspaceInterval(0));
        }
        if cfg.barostat.is_some() && cfg.barostat_period == 0 {
            return Err(EngineError::InvalidBarostatPeriod(0));
        }
        if let Err(msg) = cfg.decomposition.validate(&system) {
            return Err(EngineError::Decomposition(msg));
        }
        let positive = |x: f64| x.is_finite() && x > 0.0;
        match cfg.thermostat {
            Thermostat::Berendsen { t_kelvin, tau_fs } => {
                if !positive(t_kelvin) {
                    return Err(EngineError::InvalidThermostat("Berendsen t_kelvin <= 0"));
                }
                if !positive(tau_fs) {
                    return Err(EngineError::InvalidThermostat("Berendsen tau_fs <= 0"));
                }
            }
            Thermostat::Langevin {
                t_kelvin,
                gamma_per_ps,
            } => {
                if !positive(t_kelvin) {
                    return Err(EngineError::InvalidThermostat("Langevin t_kelvin <= 0"));
                }
                if !positive(gamma_per_ps) {
                    return Err(EngineError::InvalidThermostat("Langevin gamma_per_ps <= 0"));
                }
            }
            Thermostat::NoseHoover { t_kelvin, tau_fs } => {
                if !positive(t_kelvin) {
                    return Err(EngineError::InvalidThermostat("NoseHoover t_kelvin <= 0"));
                }
                if !positive(tau_fs) {
                    return Err(EngineError::InvalidThermostat("NoseHoover tau_fs <= 0"));
                }
            }
            Thermostat::None => {}
        }
        let tel = match self.clock {
            Some(clock) => Telemetry::with_clock(self.telemetry, clock),
            None => Telemetry::new(self.telemetry),
        };
        let mut engine = Engine::from_parts(system, cfg, tel);
        engine.watchdog = self.watchdog;
        if let Some(cp) = self.resume {
            engine.restore(&cp)?;
        }
        Ok(engine)
    }
}

/// What a completed [`Engine::run`] did: throughput in the paper's headline
/// unit (µs/day), energy drift, the per-phase time breakdown, and the work
/// counters — everything EXPERIMENTS.md tables are made of, as one
/// serializable value.
#[derive(Clone, Debug, Serialize)]
pub struct RunSummary {
    /// Steps executed by this run.
    pub steps: u64,
    /// Timestep, fs.
    pub dt_fs: f64,
    /// Simulated time covered by this run, fs.
    pub simulated_fs: f64,
    /// Atoms in the system.
    pub atoms: usize,
    /// Wall-clock for the run, seconds.
    pub wall_s: f64,
    /// Simulated µs per wall-clock day at this run's observed rate.
    pub us_per_day: f64,
    /// Total energy (kcal/mol) before the first step of the run.
    pub energy_start: f64,
    /// Total energy (kcal/mol) after the last step of the run.
    pub energy_end: f64,
    /// Energy drift normalized the way MD papers quote it:
    /// kcal/mol per atom per simulated ns.
    pub drift_kcal_per_mol_ns_atom: f64,
    /// Per-phase wall-clock totals over the run, µs
    /// (all zero unless the engine was built at [`TelemetryLevel::Phases`]).
    pub phases: PhaseBreakdownUs,
    /// Per-step average in the machine model's `BreakdownUs` schema.
    pub breakdown: MeasuredBreakdownUs,
    /// Work counters accumulated over the run.
    pub counters: Counters,
    /// Per-shard phase breakdowns and work counters over the run,
    /// including the import/export traffic of the per-step exchange.
    /// Empty for the single-image engine.
    pub shards: Vec<ShardSummary>,
}

impl RunSummary {
    /// Fraction of the run's wall-clock accounted for by the timed phases
    /// (0 when timing was off or the run was empty). The phase taxonomy is
    /// meant to cover the whole step, so at [`TelemetryLevel::Phases`] this
    /// should be close to 1.
    pub fn phase_coverage(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        self.phases.total() / (self.wall_s * 1e6)
    }
}

/// Reusable per-step scratch owned by the engine: k-space grids and FFT
/// scratch, the per-chunk bonded force buffers, the streaming nonbonded
/// workspace (cell-sorted atom stream, baked neighbor list, chunk force
/// accumulators) and the integrator's two position buffers. Holding these
/// across steps makes the whole step allocation-free in steady state.
pub struct StepWorkspace {
    gse: Option<GseWorkspace>,
    bonded: Vec<Vec<Vec3>>,
    nonbonded: NonbondedWorkspace,
    /// Positions before the drift: the constraint reference geometry.
    reference: Vec<Vec3>,
    /// Positions after the drift, before constraint projection.
    unconstrained: Vec<Vec3>,
    /// Telemetry sink: phase timers and work counters live with the rest of
    /// the per-step scratch so the hot path touches one struct.
    tel: Telemetry,
}

impl StepWorkspace {
    fn for_engine(gse: Option<&Gse>, n_atoms: usize, tel: Telemetry) -> Self {
        StepWorkspace {
            gse: gse.map(GseWorkspace::for_gse),
            bonded: (0..BONDED_CHUNKS).map(|_| Vec::new()).collect(),
            nonbonded: NonbondedWorkspace::new(),
            reference: vec![Vec3::ZERO; n_atoms],
            unconstrained: vec![Vec3::ZERO; n_atoms],
            tel,
        }
    }
}

/// The serial MD engine.
///
/// ```
/// use anton2_md::builders::water_box;
/// use anton2_md::engine::Engine;
///
/// let mut system = water_box(3, 3, 3, 1);
/// system.thermalize(300.0, 2);
/// let mut engine = Engine::builder().system(system).quick().build().unwrap();
/// let summary = engine.run(5);
/// assert_eq!(summary.steps, 5);
/// assert_eq!(engine.step_count(), 5);
/// assert!(summary.energy_end.is_finite());
/// ```
pub struct Engine {
    pub system: System,
    pub cfg: EngineConfig,
    /// Baked per-type-pair LJ parameters + cutoff shifts and the Coulomb
    /// table for the pair kernels (fixed by the cutoff and α, which never
    /// change mid-run).
    pair_table: PairTable,
    gse: Option<Gse>,
    ewald: Option<EwaldKSpace>,
    constraints: ConstraintSet,
    settle: SettleParams,
    f_short: Vec<Vec3>,
    f_long: Vec<Vec3>,
    ledger: EnergyLedger,
    /// LJ part of the pair virial from the last short-force evaluation.
    virial_lj: f64,
    step: u64,
    nh: Option<NoseHooverChain>,
    rng: StdRng,
    ws: StepWorkspace,
    /// The shard decomposition when built with a non-single
    /// [`EngineConfig::decomposition`]; `None` is the single-image engine.
    shards: Option<ShardSet>,
    /// Numerical-health watchdog, if enabled via the builder.
    watchdog: Option<WatchdogConfig>,
    /// Reference total energy for the drift check; armed at the first
    /// watchdog evaluation, cleared by a checkpoint restore.
    watchdog_e0: Option<f64>,
}

impl Engine {
    /// Start configuring an engine. See [`EngineBuilder`].
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Assemble the engine from validated parts and compute initial forces.
    fn from_parts(mut system: System, cfg: EngineConfig, tel: Telemetry) -> Self {
        system.wrap_positions();
        let pair_table = system.pair_table();
        let settle = SettleParams::tip3p();
        let constraints = ConstraintSet::from_topology(
            &system.topology,
            !cfg.use_settle,
            settle.d_oh,
            settle.d_hh,
        );
        let gse = match cfg.kspace {
            KspaceMethod::Gse => Some(Gse::new(
                system.nb.ewald_alpha,
                system.pbc,
                GseParams::for_box(system.nb.ewald_alpha, &system.pbc),
            )),
            _ => None,
        };
        let ewald = match cfg.kspace {
            KspaceMethod::ClassicEwald => Some(EwaldKSpace::for_box(
                system.nb.ewald_alpha,
                &system.pbc,
                1e-10,
            )),
            _ => None,
        };
        let nh = match cfg.thermostat {
            Thermostat::NoseHoover { t_kelvin, tau_fs } => Some(NoseHooverChain::new(
                t_kelvin,
                tau_fs,
                system.topology.degrees_of_freedom(),
            )),
            _ => None,
        };
        let n = system.n_atoms();
        let shards =
            (!cfg.decomposition.is_single()).then(|| ShardSet::new(cfg.decomposition, tel.level()));
        let ws = StepWorkspace::for_engine(gse.as_ref(), n, tel);
        let mut engine = Engine {
            system,
            cfg,
            pair_table,
            gse,
            ewald,
            constraints,
            settle,
            f_short: vec![Vec3::ZERO; n],
            f_long: vec![Vec3::ZERO; n],
            ledger: EnergyLedger::default(),
            virial_lj: 0.0,
            step: 0,
            nh,
            rng: StdRng::seed_from_u64(cfg.seed),
            ws,
            shards,
            watchdog: None,
            watchdog_e0: None,
        };
        engine.compute_short_forces();
        engine.compute_long_forces();
        engine.ledger.kinetic = engine.system.kinetic_energy();
        engine
    }

    /// Steps completed so far.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Energy decomposition as of the last force evaluation.
    pub fn energies(&self) -> EnergyLedger {
        self.ledger
    }

    /// Simulated time so far, fs.
    pub fn time_fs(&self) -> f64 {
        self.step as f64 * self.cfg.dt_fs
    }

    /// Streaming access to the telemetry sink: level, accumulated
    /// [`StepProfile`], counters. All zeros at [`TelemetryLevel::Off`].
    pub fn telemetry(&self) -> &Telemetry {
        &self.ws.tel
    }

    /// Fold network fault activity from a co-simulated fabric into this
    /// engine's telemetry. The DES machine owns the raw `FaultCounters`
    /// tallies; harnesses call this once per simulated cycle so
    /// retransmits and reroutes show up next to the MD counters they
    /// perturb.
    pub fn record_net_activity(&mut self, retries: u64, reroutes: u64) {
        self.ws.tel.count_net_retries(retries);
        self.ws.tel.count_net_reroutes(reroutes);
    }

    /// Fold fixed-point saturation clamps observed by an external
    /// accumulator (e.g. the co-sim verification pass) into telemetry,
    /// beside the pair stream's own. Any nonzero count means a value left
    /// the 40.24 force format's range and was saturated.
    pub fn record_fixedpoint_clamps(&mut self, clamps: u64) {
        self.ws.tel.count_fixedpoint_clamps(clamps);
    }

    /// Snapshot of the accumulated profile (cheap `Copy`; diff two
    /// snapshots with [`StepProfile::since`] to profile a window).
    pub fn profile(&self) -> StepProfile {
        *self.ws.tel.profile()
    }

    /// Zero the accumulated telemetry profile (level and clock unchanged).
    pub fn reset_telemetry(&mut self) {
        self.ws.tel.reset();
    }

    /// Instantaneous pressure (atm) from the virial decomposition: LJ pair
    /// virial (tracked by the kernel) + bonded virial + the exact Ewald
    /// identity `W_coul = U_coul` (see `crate::pressure`).
    pub fn pressure_atm(&self) -> f64 {
        let w = self.virial_lj
            + bonded_virial(
                &self.system.topology,
                &self.system.pbc,
                &self.system.positions,
            )
            + self.ledger.coulomb();
        pressure_atm(self.system.kinetic_energy(), w, self.system.pbc.volume())
    }

    /// Whether the force kernels should run their parallel paths.
    fn parallel_enabled(&self) -> bool {
        match self.cfg.parallelism {
            Parallelism::Serial => false,
            Parallelism::Parallel => true,
            Parallelism::Auto => self.system.n_atoms() >= 4096,
        }
    }

    /// Range-limited + bonded forces into `f_short`, updating the ledger.
    fn compute_short_forces(&mut self) {
        let parallel = self.parallel_enabled();
        self.f_short.iter_mut().for_each(|f| *f = Vec3::ZERO);
        // Streaming kernel: the workspace tracks the skin/2 drift criterion
        // and the box, rebuilding its cell-sorted stream + baked list only
        // when needed. Pair forces accumulate in fixed point, so the serial,
        // parallel and sharded paths give the same bits at any thread count.
        let nb = if self.shards.is_some() {
            self.sharded_nonbonded()
        } else {
            nonbonded_forces_streamed_profiled(
                &self.system,
                &self.pair_table,
                &mut self.ws.nonbonded,
                &mut self.f_short,
                parallel,
                &mut self.ws.tel,
            )
        };
        self.ledger.lj = nb.lj;
        self.ledger.coulomb_real = nb.coulomb_real;
        let t0 = self.ws.tel.start();
        let (e_excl, _) =
            excluded_corrections(&self.system, self.pair_table.coulomb(), &mut self.f_short);
        self.ledger.coulomb_excluded = e_excl;
        let (lj14, coul14, _, v14_lj) = scaled14_corrections(&self.system, &mut self.f_short);
        self.ws.tel.stop(Phase::ShortRange, t0);
        self.virial_lj = nb.virial_lj + v14_lj;
        self.ledger.lj14 = lj14;
        self.ledger.coulomb14 = coul14;
        let t0 = self.ws.tel.start();
        let be = if parallel {
            all_bonded_forces_parallel(
                &self.system.topology,
                &self.system.pbc,
                &self.system.positions,
                &mut self.f_short,
                &mut self.ws.bonded,
            )
        } else {
            all_bonded_forces(
                &self.system.topology,
                &self.system.pbc,
                &self.system.positions,
                &mut self.f_short,
            )
        };
        self.ws.tel.stop(Phase::Bonded, t0);
        self.ledger.bond = be.bond;
        self.ledger.angle = be.angle;
        self.ledger.dihedral = be.dihedral;
        self.ledger.urey_bradley = be.urey_bradley;
        self.ledger.improper = be.improper;
    }

    /// Sharded replacement for the streaming nonbonded call: identical
    /// stream/rebuild bookkeeping, then the per-step exchange, every shard
    /// evaluating its owned rows against its local mirror into its own
    /// fixed-point image, and the driver adding the images — integer
    /// additions, so forces, energies and the global telemetry counters
    /// come out bitwise identical to [`nonbonded_forces_streamed_profiled`].
    fn sharded_nonbonded(&mut self) -> NonbondedEnergy {
        let shards = self.shards.as_mut().expect("sharded path");
        let tel = &mut self.ws.tel;
        let nbws = &mut self.ws.nonbonded;
        nbws.stream.ensure_profiled(&self.system, tel);

        shards.sync(&nbws.stream);
        shards.exchange(&nbws.stream, tel);

        let t0 = tel.start();
        shards.evaluate(&nbws.stream, &self.pair_table);
        let tally = shards.merge_forces(&nbws.stream, &mut nbws.image);
        nbws.finish(&tally, &mut self.f_short, tel, t0)
    }

    /// K-space forces into `f_long`, updating the ledger.
    fn compute_long_forces(&mut self) {
        let parallel = self.parallel_enabled();
        self.f_long.iter_mut().for_each(|f| *f = Vec3::ZERO);
        let alpha = self.system.nb.ewald_alpha;
        let charges = &self.system.topology.charges;
        match self.cfg.kspace {
            KspaceMethod::Gse => {
                let gse = self.gse.as_ref().expect("GSE planned at construction");
                let ws = self
                    .ws
                    .gse
                    .as_mut()
                    .expect("GSE workspace sized at construction");
                self.ledger.coulomb_kspace = if let Some(shards) = self.shards.as_mut() {
                    gse.energy_forces_sharded(
                        &self.system.positions,
                        charges,
                        &mut self.f_long,
                        ws,
                        parallel,
                        &mut self.ws.tel,
                        shards,
                    )
                } else {
                    gse.energy_forces_profiled(
                        &self.system.positions,
                        charges,
                        &mut self.f_long,
                        ws,
                        parallel,
                        &mut self.ws.tel,
                    )
                };
            }
            KspaceMethod::ClassicEwald => {
                let ks = self.ewald.as_ref().expect("Ewald planned at construction");
                let t0 = self.ws.tel.start();
                self.ledger.coulomb_kspace = ks.energy_forces(
                    &self.system.pbc,
                    &self.system.positions,
                    charges,
                    &mut self.f_long,
                );
                self.ws.tel.stop(Phase::Fft, t0);
            }
            KspaceMethod::None => {
                self.ledger.coulomb_kspace = 0.0;
            }
        }
        if self.cfg.kspace != KspaceMethod::None {
            let t0 = self.ws.tel.start();
            self.ledger.coulomb_self = self_energy(alpha, charges);
            self.ledger.coulomb_background = background_energy(alpha, &self.system.pbc, charges);
            self.ws.tel.stop(Phase::Fft, t0);
        } else {
            self.ledger.coulomb_self = 0.0;
            self.ledger.coulomb_background = 0.0;
        }
    }

    /// Apply a velocity kick `v += F/m · scale·dt/2`.
    fn kick_scaled(&mut self, forces: bool, scale: f64) {
        let dt = fs_to_internal(self.cfg.dt_fs);
        let f = if forces { &self.f_short } else { &self.f_long };
        for ((v, fo), &m) in self
            .system
            .velocities
            .iter_mut()
            .zip(f)
            .zip(&self.system.topology.masses)
        {
            *v += *fo * (0.5 * scale * dt / m);
        }
    }

    /// Advance one step of velocity Verlet with RESPA and constraints.
    pub fn step(&mut self) {
        let k = self.cfg.respa.kspace_weight();
        let dt = fs_to_internal(self.cfg.dt_fs);

        let t0 = self.ws.tel.start();
        if let Some(nh) = self.nh.as_mut() {
            nh.half_step(
                &mut self.system.velocities,
                &self.system.topology.masses,
                self.cfg.dt_fs,
            );
        }
        self.ws.tel.stop(Phase::Thermostat, t0);

        // Pre-kick: short force every step, long impulse at outer boundaries.
        let t0 = self.ws.tel.start();
        self.kick_scaled(true, 1.0);
        if self.cfg.respa.kspace_due(self.step) {
            self.kick_scaled(false, k);
        }

        // Drift with constraint projection.
        self.ws.reference.copy_from_slice(&self.system.positions);
        drift(
            &mut self.system.positions,
            &self.system.velocities,
            self.cfg.dt_fs,
        );
        self.ws
            .unconstrained
            .copy_from_slice(&self.system.positions);
        self.ws.tel.stop(Phase::Integration, t0);
        let t0 = self.ws.tel.start();
        self.apply_position_constraints();
        self.ws.tel.stop(Phase::Constraints, t0);
        // Velocity correction from the constraint displacement. The
        // constrained position may sit in a different periodic image than
        // the unconstrained one (SETTLE works in unwrapped molecule-local
        // coordinates), so the displacement must be taken minimum-image.
        let t0 = self.ws.tel.start();
        let pbc = self.system.pbc;
        for ((v, pc), pu) in self
            .system
            .velocities
            .iter_mut()
            .zip(&self.system.positions)
            .zip(&self.ws.unconstrained)
        {
            *v += pbc.min_image(*pc, *pu) / dt;
        }
        self.ws.tel.stop(Phase::Integration, t0);

        // New forces (timed inside the force pipeline itself).
        self.compute_short_forces();
        let outer_boundary = self.cfg.respa.kspace_due(self.step + 1);
        if outer_boundary {
            self.compute_long_forces();
        }

        // Post-kick.
        let t0 = self.ws.tel.start();
        self.kick_scaled(true, 1.0);
        if outer_boundary {
            self.kick_scaled(false, k);
        }
        self.ws.tel.stop(Phase::Integration, t0);

        // Constrain velocities along rigid bonds.
        let t0 = self.ws.tel.start();
        self.apply_velocity_constraints();
        self.ws.tel.stop(Phase::Constraints, t0);

        // Thermostats.
        let t0 = self.ws.tel.start();
        match self.cfg.thermostat {
            Thermostat::Berendsen { t_kelvin, tau_fs } => {
                let b = Berendsen {
                    target_kelvin: t_kelvin,
                    tau_fs,
                };
                let t_now = self.system.temperature();
                b.apply(&mut self.system.velocities, t_now, self.cfg.dt_fs);
            }
            Thermostat::Langevin {
                t_kelvin,
                gamma_per_ps,
            } => {
                langevin_o_step(
                    &mut self.system.velocities,
                    &self.system.topology.masses,
                    t_kelvin,
                    gamma_per_ps,
                    self.cfg.dt_fs,
                    &mut self.rng,
                );
                self.apply_velocity_constraints();
            }
            Thermostat::NoseHoover { .. } => {
                if let Some(nh) = self.nh.as_mut() {
                    nh.half_step(
                        &mut self.system.velocities,
                        &self.system.topology.masses,
                        self.cfg.dt_fs,
                    );
                }
            }
            Thermostat::None => {}
        }
        self.ws.tel.stop(Phase::Thermostat, t0);

        let t0 = self.ws.tel.start();
        self.ledger.kinetic = self.system.kinetic_energy();
        self.ws.tel.stop(Phase::Integration, t0);
        self.step += 1;
        self.ws.tel.step_done();

        if let Some(barostat) = self.cfg.barostat {
            if self.step.is_multiple_of(self.cfg.barostat_period as u64) {
                self.apply_barostat(&barostat);
            }
        }
    }

    /// One barostat coupling step: rescale the box, translating each rigid
    /// water by its center-of-mass displacement (so constraints stay exactly
    /// satisfied) and scaling all other atoms directly, then rebuild the
    /// box-dependent machinery (neighbor list, k-space plans).
    fn apply_barostat(&mut self, barostat: &BerendsenBarostat) {
        let p_now = self.pressure_atm();
        let dt_window = self.cfg.dt_fs * self.cfg.barostat_period as f64;
        let old_box = self.system.pbc;
        let mu = {
            // Scale a copy of the box; positions handled per-molecule below.
            let mut scaled = old_box;
            let mut dummy: Vec<Vec3> = Vec::new();
            barostat.apply(&mut scaled, &mut dummy, p_now, dt_window)
        };
        if (mu - 1.0).abs() < 1e-12 {
            return;
        }
        let mut is_water_atom = vec![false; self.system.n_atoms()];
        for w in &self.system.topology.waters {
            for &a in w {
                is_water_atom[a] = true;
            }
        }
        // Rigid waters translate by the COM displacement.
        let System {
            topology,
            positions,
            ..
        } = &mut self.system;
        let masses = &topology.masses;
        for w in &topology.waters {
            let m: f64 = w.iter().map(|&a| masses[a]).sum();
            // Unwrap around the oxygen so the COM is well defined.
            let o = positions[w[0]];
            let com: Vec3 = w
                .iter()
                .map(|&a| (o + old_box.min_image(positions[a], o)) * masses[a])
                .sum::<Vec3>()
                / m;
            let shift = com * (mu - 1.0);
            for &a in w {
                positions[a] += shift;
            }
        }
        for (a, p) in self.system.positions.iter_mut().enumerate() {
            if !is_water_atom[a] {
                *p = *p * mu;
            }
        }
        self.system.pbc = PbcBox::new(old_box.lx * mu, old_box.ly * mu, old_box.lz * mu);
        self.system.wrap_positions();

        // Rebuild box-dependent state. (The nonbonded stream also detects
        // the box change on its own; the invalidation makes it explicit.)
        self.ws.nonbonded.invalidate();
        if self.gse.is_some() {
            self.gse = Some(Gse::new(
                self.system.nb.ewald_alpha,
                self.system.pbc,
                GseParams::for_box(self.system.nb.ewald_alpha, &self.system.pbc),
            ));
            // Grid dimensions may have changed with the box.
            self.ws.gse = self.gse.as_ref().map(GseWorkspace::for_gse);
        }
        if self.ewald.is_some() {
            self.ewald = Some(EwaldKSpace::for_box(
                self.system.nb.ewald_alpha,
                &self.system.pbc,
                1e-10,
            ));
        }
        self.compute_short_forces();
        self.compute_long_forces();
    }

    /// Run `n` steps and summarize them: throughput, energy drift, phase
    /// breakdown, counters. Phase times and counters are non-zero only when
    /// the engine was built with a [`TelemetryLevel`] above `Off`; the
    /// wall-clock and energy fields are always filled.
    pub fn run(&mut self, n: usize) -> RunSummary {
        let before = *self.ws.tel.profile();
        let shards_before = self.shard_profiles();
        let e0 = self.ledger.total();
        let wall = Instant::now();
        for _ in 0..n {
            self.step();
        }
        self.summarize(
            n as u64,
            e0,
            wall.elapsed().as_secs_f64(),
            &before,
            &shards_before,
        )
    }

    /// Step until simulated time reaches `target_fs` (measured from time
    /// zero, not from the current step), summarizing the steps taken. A
    /// target at or behind the current time runs zero steps.
    pub fn run_until_fs(&mut self, target_fs: f64) -> RunSummary {
        let before = *self.ws.tel.profile();
        let shards_before = self.shard_profiles();
        let e0 = self.ledger.total();
        let wall = Instant::now();
        let mut steps = 0u64;
        // Half-step tolerance so `run_until_fs(k * dt)` lands on step k even
        // when `k * dt` is not exactly representable.
        while self.time_fs() + 0.5 * self.cfg.dt_fs < target_fs {
            self.step();
            steps += 1;
        }
        self.summarize(
            steps,
            e0,
            wall.elapsed().as_secs_f64(),
            &before,
            &shards_before,
        )
    }

    /// Snapshot of every shard's telemetry profile (empty when
    /// single-image); diffed by [`Engine::summarize`] over a run window.
    fn shard_profiles(&self) -> Vec<StepProfile> {
        self.shards
            .as_ref()
            .map(ShardSet::profiles)
            .unwrap_or_default()
    }

    fn summarize(
        &self,
        steps: u64,
        e0: f64,
        wall_s: f64,
        before: &StepProfile,
        shards_before: &[StepProfile],
    ) -> RunSummary {
        let profile = self.ws.tel.profile().since(before);
        let simulated_fs = steps as f64 * self.cfg.dt_fs;
        let e1 = self.ledger.total();
        let atoms = self.system.n_atoms();
        RunSummary {
            steps,
            dt_fs: self.cfg.dt_fs,
            simulated_fs,
            atoms,
            wall_s,
            us_per_day: if steps > 0 && wall_s > 0.0 {
                us_per_day(self.cfg.dt_fs, wall_s / steps as f64)
            } else {
                0.0
            },
            energy_start: e0,
            energy_end: e1,
            drift_kcal_per_mol_ns_atom: if steps > 0 && atoms > 0 {
                (e1 - e0) / (simulated_fs * 1e-6) / atoms as f64
            } else {
                0.0
            },
            phases: profile.phases_us(),
            breakdown: profile.breakdown_us(),
            counters: profile.counters,
            shards: self
                .shards
                .as_ref()
                .map(|s| s.summaries(shards_before))
                .unwrap_or_default(),
        }
    }

    /// Project the drifted positions back onto the rigid-water / SHAKE
    /// manifold, against the pre-drift geometry in `ws.reference`.
    fn apply_position_constraints(&mut self) {
        let System {
            topology,
            positions,
            pbc,
            ..
        } = &mut self.system;
        let reference = &self.ws.reference[..];
        if self.cfg.use_settle {
            for w in &topology.waters {
                let old = [reference[w[0]], reference[w[1]], reference[w[2]]];
                let mut newp = [positions[w[0]], positions[w[1]], positions[w[2]]];
                settle_positions(&self.settle, pbc, old, &mut newp);
                positions[w[0]] = newp[0];
                positions[w[1]] = newp[1];
                positions[w[2]] = newp[2];
            }
        }
        if !self.constraints.is_empty() {
            self.constraints
                .shake_positions(pbc, reference, positions, self.cfg.shake_tol, 500);
        }
    }

    fn apply_velocity_constraints(&mut self) {
        let System {
            topology,
            positions,
            velocities,
            pbc,
            ..
        } = &mut self.system;
        if self.cfg.use_settle {
            for w in &topology.waters {
                let pos = [positions[w[0]], positions[w[1]], positions[w[2]]];
                let mut vel = [velocities[w[0]], velocities[w[1]], velocities[w[2]]];
                settle_velocities(&self.settle, pbc, pos, &mut vel);
                velocities[w[0]] = vel[0];
                velocities[w[1]] = vel[1];
                velocities[w[2]] = vel[2];
            }
        }
        if !self.constraints.is_empty() {
            self.constraints
                .rattle_velocities(pbc, positions, velocities, self.cfg.shake_tol, 500);
        }
    }

    /// Relax the system with constraint-projected steepest descent: every
    /// trial move is projected back onto the rigid-water/SHAKE manifold
    /// before being evaluated, so minimization never distorts constrained
    /// geometry. Returns the final potential energy.
    pub fn minimize(&mut self, max_iter: usize, f_tol: f64) -> f64 {
        self.compute_short_forces();
        self.compute_long_forces();
        let mut energy = self.ledger.potential();
        let mut step = 0.02; // Å cap on the largest single-atom displacement

        for _ in 0..max_iter {
            let fmax = self
                .f_short
                .iter()
                .zip(&self.f_long)
                .map(|(a, b)| (*a + *b).max_abs())
                .fold(0.0, f64::max);
            if fmax < f_tol {
                break;
            }
            self.ws.reference.copy_from_slice(&self.system.positions);
            let scale = step / fmax;
            for (p, (a, b)) in self
                .system
                .positions
                .iter_mut()
                .zip(self.f_short.iter().zip(&self.f_long))
            {
                *p += (*a + *b) * scale;
            }
            self.apply_position_constraints();
            self.compute_short_forces();
            self.compute_long_forces();
            let trial = self.ledger.potential();
            if trial < energy {
                energy = trial;
                step = (step * 1.2).min(0.2);
            } else {
                // Reject: restore and shrink the step.
                self.system.positions.copy_from_slice(&self.ws.reference);
                self.compute_short_forces();
                self.compute_long_forces();
                step *= 0.5;
                if step < 1e-8 {
                    break;
                }
            }
        }
        energy
    }

    /// Capture a complete restartable checkpoint: positions, velocities,
    /// box, cached RESPA force arrays, energy ledger, thermostat RNG state,
    /// Nosé–Hoover chain state, neighbor-list epoch, and the accumulated
    /// telemetry profile — everything needed for [`Engine::restore`] (or
    /// [`EngineBuilder::resume_from`]) to continue bitwise identically with
    /// zero recomputation.
    pub fn checkpoint(&self) -> Checkpoint {
        let mut cp = Checkpoint::capture(&self.system, self.step, self.cfg.dt_fs);
        cp.f_short = self.f_short.clone();
        cp.f_long = self.f_long.clone();
        cp.ledger = self.ledger;
        cp.virial_lj = self.virial_lj;
        cp.rng_state = self.rng.state();
        cp.nh_xi = self.nh.as_ref().map(NoseHooverChain::xi);
        cp.stream_epoch = self.ws.nonbonded.stream().ref_positions().to_vec();
        cp.telemetry = *self.ws.tel.profile();
        // A decomposed engine adds per-shard state images stamped with the
        // step, acting as the consistency barrier a distributed
        // implementation would need (all shards quiesced at the same step
        // before imaging). Per-shard telemetry profiles are intentionally
        // not checkpointed — the global profile is authoritative; per-shard
        // counters restart from zero.
        if let Some(shards) = &self.shards {
            cp.shards = shards.images(
                self.ws.nonbonded.stream(),
                self.step,
                &self.system.positions,
                &self.system.velocities,
            );
        }
        cp.digest = cp.compute_digest();
        cp
    }

    /// Validate a checkpoint against this engine before touching any state.
    fn validate_checkpoint(&self, cp: &Checkpoint) -> Result<(), EngineError> {
        if cp.version != CHECKPOINT_VERSION {
            return Err(EngineError::CheckpointVersion {
                found: cp.version,
                expected: CHECKPOINT_VERSION,
            });
        }
        if !cp.digest_ok() {
            return Err(EngineError::CheckpointCorrupt);
        }
        if let Err(what) = cp.validate_shards() {
            return Err(EngineError::CheckpointMismatch(what));
        }
        let n = self.system.n_atoms();
        if cp.positions.len() != n || cp.velocities.len() != n {
            return Err(EngineError::CheckpointMismatch("atom count"));
        }
        if cp.f_short.len() != n || cp.f_long.len() != n {
            return Err(EngineError::CheckpointMismatch("force array length"));
        }
        if cp.nh_xi.is_some() != self.nh.is_some() {
            return Err(EngineError::CheckpointMismatch("thermostat state"));
        }
        if cp.stream_epoch.len() != n {
            return Err(EngineError::CheckpointMismatch("neighbor epoch length"));
        }
        if cp.dt_fs.to_bits() != self.cfg.dt_fs.to_bits() {
            return Err(EngineError::CheckpointMismatch("dt_fs"));
        }
        // The digest vouches for integrity, not for sanity: a box edge or
        // coordinate that parsed but is not a usable number must not reach
        // the k-space planners or the cell grid.
        let edges = [cp.pbc.lx, cp.pbc.ly, cp.pbc.lz];
        if !edges.iter().all(|l| l.is_finite() && *l > 0.0) {
            return Err(EngineError::CheckpointMismatch("box"));
        }
        let state = [
            &cp.positions,
            &cp.velocities,
            &cp.f_short,
            &cp.f_long,
            &cp.stream_epoch,
        ];
        if !state.into_iter().flatten().all(|v| v.is_finite()) {
            return Err(EngineError::CheckpointMismatch("non-finite state"));
        }
        Ok(())
    }

    /// Restore from a checkpoint taken by [`Engine::checkpoint`] (same
    /// topology and configuration).
    ///
    /// *Every* piece of dynamic state is adopted verbatim — including the
    /// cached RESPA long forces, which are not recomputable at an arbitrary
    /// step — so no force evaluation runs and the continued trajectory is
    /// bitwise identical to the uninterrupted one. The neighbor stream is
    /// rebuilt from the checkpointed epoch positions so later skin-drift
    /// rebuild decisions replay exactly.
    pub fn restore(&mut self, cp: &Checkpoint) -> Result<(), EngineError> {
        self.validate_checkpoint(cp)?;
        self.system.pbc = cp.pbc;
        self.system.velocities = cp.velocities.clone();
        self.step = cp.step;
        // Box-dependent plans: the checkpoint's box may differ from the
        // one this engine was built with (barostat runs).
        if self.gse.is_some() {
            self.gse = Some(Gse::new(
                self.system.nb.ewald_alpha,
                self.system.pbc,
                GseParams::for_box(self.system.nb.ewald_alpha, &self.system.pbc),
            ));
            self.ws.gse = self.gse.as_ref().map(GseWorkspace::for_gse);
        }
        if self.ewald.is_some() {
            self.ewald = Some(EwaldKSpace::for_box(
                self.system.nb.ewald_alpha,
                &self.system.pbc,
                1e-10,
            ));
        }
        self.f_short = cp.f_short.clone();
        self.f_long = cp.f_long.clone();
        self.ledger = cp.ledger;
        self.virial_lj = cp.virial_lj;
        self.rng = StdRng::from_state(cp.rng_state);
        if let (Some(nh), Some(xi)) = (self.nh.as_mut(), cp.nh_xi) {
            nh.set_xi(xi);
        }
        // Rebuild the stream at the checkpointed epoch, then put the current
        // positions in: the next `ensure()` re-gathers them without
        // triggering a rebuild (drift from the epoch is under skin/2 by
        // construction, or the original run would have rebuilt and
        // checkpointed a newer epoch).
        self.system.positions.clone_from(&cp.stream_epoch);
        self.ws.nonbonded.rebuild_at_epoch(&self.system);
        self.system.positions.clone_from(&cp.positions);
        self.ws.tel.restore_profile(cp.telemetry);
        self.watchdog_e0 = None;
        Ok(())
    }

    /// One step plus a numerical-health check: NaN/inf force scan,
    /// pair-stream saturation and total-energy drift against a reference
    /// armed at the first check.
    /// Without a [`WatchdogConfig`] this is exactly [`Engine::step`].
    /// A passing check does not perturb the trajectory.
    pub fn try_step(&mut self) -> Result<(), EngineError> {
        self.step();
        self.check_health()
    }

    /// Run up to `n` watchdog-checked steps, stopping at the first failed
    /// health check. The error names the step after which it tripped; the
    /// engine state is left as of that step (e.g. for a post-mortem
    /// checkpoint of the blown-up state).
    pub fn try_run(&mut self, n: usize) -> Result<RunSummary, EngineError> {
        let before = *self.ws.tel.profile();
        let shards_before = self.shard_profiles();
        let e0 = self.ledger.total();
        let wall = Instant::now();
        for _ in 0..n {
            self.try_step()?;
        }
        Ok(self.summarize(
            n as u64,
            e0,
            wall.elapsed().as_secs_f64(),
            &before,
            &shards_before,
        ))
    }

    fn check_health(&mut self) -> Result<(), EngineError> {
        let Some(wd) = self.watchdog else {
            return Ok(());
        };
        self.ws.tel.count_watchdog_check();
        for (atom, (s, l)) in self.f_short.iter().zip(&self.f_long).enumerate() {
            if !(*s + *l).is_finite() {
                return Err(EngineError::NonFiniteForce {
                    step: self.step,
                    atom,
                });
            }
        }
        if let Some((atom, clamps)) = self.ws.nonbonded.saturation() {
            return Err(EngineError::SaturatedForce {
                step: self.step,
                atom,
                clamps,
            });
        }
        let e = self.ledger.total();
        let n = self.system.n_atoms() as f64;
        let e0 = *self.watchdog_e0.get_or_insert(e);
        let drift = if e.is_finite() {
            ((e - e0) / n).abs()
        } else {
            f64::INFINITY
        };
        if drift > wd.max_drift_kcal_per_atom {
            return Err(EngineError::EnergyDrift {
                step: self.step,
                drift,
                limit: wd.max_drift_kcal_per_atom,
            });
        }
        Ok(())
    }

    /// Immutable access to the current short-range forces (testing).
    pub fn short_forces(&self) -> &[Vec3] {
        &self.f_short
    }

    /// Immutable access to the current long-range forces (testing).
    pub fn long_forces(&self) -> &[Vec3] {
        &self.f_long
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{lj_fluid, water_box};
    use crate::observables::DriftTracker;

    #[test]
    fn engine_runs_and_counts_steps() {
        let mut e = Engine::builder()
            .system(water_box(3, 3, 3, 1))
            .quick()
            .build()
            .unwrap();
        e.run(3);
        assert_eq!(e.step_count(), 3);
        assert!((e.time_fs() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn forces_are_finite_after_construction() {
        let e = Engine::builder()
            .system(water_box(3, 3, 3, 1))
            .quick()
            .build()
            .unwrap();
        for f in e.short_forces().iter().chain(e.long_forces()) {
            assert!(f.is_finite());
        }
    }

    #[test]
    fn water_stays_rigid_through_dynamics() {
        let mut sys = water_box(3, 3, 3, 2);
        sys.thermalize(300.0, 3);
        let mut e = Engine::builder().system(sys).quick().build().unwrap();
        e.run(20);
        let p = SettleParams::tip3p();
        for w in &e.system.topology.waters {
            let d = e
                .system
                .pbc
                .min_image(e.system.positions[w[0]], e.system.positions[w[1]])
                .norm();
            assert!((d - p.d_oh).abs() < 1e-6, "O-H drifted to {d}");
        }
    }

    #[test]
    fn nve_conserves_energy_water() {
        let mut sys = water_box(3, 3, 3, 4);
        sys.thermalize(300.0, 5);
        let mut e = Engine::builder().system(sys).quick().build().unwrap();
        // Short relaxation so the lattice start is not pathological.
        e.minimize(150, 1.0);
        e.system.thermalize(300.0, 6);
        let mut tracker = DriftTracker::new();
        for _ in 0..200 {
            e.step();
            tracker.record(e.time_fs(), e.energies().total());
        }
        let n = e.system.n_atoms();
        let drift = tracker.drift_per_atom_per_ns(n).unwrap().abs();
        // Production MD accepts ~0.01 kT/ns/atom; allow a loose bound here
        // (short run, fresh synthetic system).
        assert!(drift < 2.0, "NVE drift {drift} kcal/mol/ns/atom");
    }

    #[test]
    fn nve_conserves_energy_lj_fluid() {
        let mut sys = lj_fluid(125, 0.8, 5);
        sys.thermalize(120.0, 6);
        let mut cfg = EngineConfig::quick();
        cfg.kspace = KspaceMethod::None;
        let mut e = Engine::builder().system(sys).config(cfg).build().unwrap();
        e.minimize(100, 1.0);
        e.system.thermalize(120.0, 7);
        let mut tracker = DriftTracker::new();
        for _ in 0..300 {
            e.step();
            tracker.record(e.time_fs(), e.energies().total());
        }
        let drift = tracker.drift_per_atom_per_ns(125).unwrap().abs();
        assert!(drift < 1.0, "LJ NVE drift {drift}");
    }

    #[test]
    fn respa_matches_every_step_kspace_closely() {
        // With RESPA interval 2, short trajectories must stay close to the
        // every-step reference (the MTS impulse is a controlled approximation).
        let build = || {
            let mut sys = water_box(3, 3, 3, 8);
            sys.thermalize(300.0, 9);
            sys
        };
        let mut every = Engine::builder().system(build()).quick().build().unwrap();
        let mut cfg = EngineConfig::quick();
        cfg.respa = RespaSchedule { kspace_interval: 2 };
        let mut mts = Engine::builder()
            .system(build())
            .config(cfg)
            .build()
            .unwrap();
        every.run(10);
        mts.run(10);
        let mut worst: f64 = 0.0;
        for (a, b) in every.system.positions.iter().zip(&mts.system.positions) {
            worst = worst.max(every.system.pbc.min_image(*a, *b).norm());
        }
        assert!(worst < 5e-3, "RESPA divergence {worst} Å after 10 fs");
    }

    #[test]
    fn berendsen_regulates_temperature() {
        let mut sys = water_box(3, 3, 3, 10);
        sys.thermalize(500.0, 11);
        let mut cfg = EngineConfig::quick();
        cfg.thermostat = Thermostat::Berendsen {
            t_kelvin: 300.0,
            tau_fs: 50.0,
        };
        let mut e = Engine::builder().system(sys).config(cfg).build().unwrap();
        e.minimize(100, 1.0);
        e.system.thermalize(500.0, 12);
        e.run(250);
        // Average over a window: a 27-water box has ~9% instantaneous
        // temperature fluctuations, so a single sample is noise-dominated.
        let mut t_sum = 0.0;
        for _ in 0..50 {
            e.run(1);
            t_sum += e.system.temperature();
        }
        let t = t_sum / 50.0;
        assert!((t - 300.0).abs() < 60.0, "T = {t}");
    }

    #[test]
    fn engine_is_deterministic() {
        let run = || {
            let mut sys = water_box(2, 2, 2, 20);
            sys.thermalize(300.0, 21);
            let mut e = Engine::builder().system(sys).quick().build().unwrap();
            e.run(5);
            e.system
                .positions
                .iter()
                .map(|p| (p.x.to_bits(), p.y.to_bits(), p.z.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shake_only_matches_settle_trajectory() {
        // Same water box evolved with SETTLE vs SHAKE-on-waters: identical
        // physics, so trajectories agree closely over short times.
        let build = || {
            let mut sys = water_box(2, 2, 2, 30);
            sys.thermalize(200.0, 31);
            sys
        };
        let mut with_settle = Engine::builder().system(build()).quick().build().unwrap();
        let mut cfg = EngineConfig::quick();
        cfg.use_settle = false;
        cfg.shake_tol = 1e-12;
        let mut with_shake = Engine::builder()
            .system(build())
            .config(cfg)
            .build()
            .unwrap();
        with_settle.run(5);
        with_shake.run(5);
        for (a, b) in with_settle
            .system
            .positions
            .iter()
            .zip(&with_shake.system.positions)
        {
            assert!(
                with_settle.system.pbc.min_image(*a, *b).norm() < 1e-4,
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn minimize_reduces_potential() {
        let mut e = Engine::builder()
            .system(water_box(3, 3, 3, 40))
            .quick()
            .build()
            .unwrap();
        let before = e.energies().potential();
        let after = e.minimize(100, 0.5);
        assert!(after <= before, "minimize went uphill: {before} -> {after}");
    }

    #[test]
    fn builder_rejects_bad_configurations() {
        assert_eq!(
            Engine::builder().build().map(|_| ()),
            Err(EngineError::MissingSystem)
        );
        let sys = || water_box(2, 2, 2, 50);
        assert_eq!(
            Engine::builder()
                .system(sys())
                .dt_fs(0.0)
                .build()
                .map(|_| ()),
            Err(EngineError::InvalidTimestep(0.0))
        );
        assert_eq!(
            Engine::builder()
                .system(sys())
                .dt_fs(f64::NAN)
                .build()
                .map(|_| ())
                .map_err(|e| matches!(e, EngineError::InvalidTimestep(_))),
            Err(true)
        );
        assert_eq!(
            Engine::builder()
                .system(sys())
                .shake_tol(-1.0)
                .build()
                .map(|_| ()),
            Err(EngineError::InvalidShakeTol(-1.0))
        );
        assert_eq!(
            Engine::builder()
                .system(sys())
                .respa(RespaSchedule { kspace_interval: 0 })
                .build()
                .map(|_| ()),
            Err(EngineError::InvalidKspaceInterval(0))
        );
        assert_eq!(
            Engine::builder()
                .system(sys())
                .barostat(BerendsenBarostat::water(1.0, 100.0), 0)
                .build()
                .map(|_| ()),
            Err(EngineError::InvalidBarostatPeriod(0))
        );
        assert_eq!(
            Engine::builder()
                .system(sys())
                .thermostat(Thermostat::Langevin {
                    t_kelvin: -5.0,
                    gamma_per_ps: 1.0,
                })
                .build()
                .map(|_| ()),
            Err(EngineError::InvalidThermostat("Langevin t_kelvin <= 0"))
        );
        // Errors render a human-readable message.
        assert!(EngineError::MissingSystem.to_string().contains("system"));
    }

    #[test]
    fn run_summary_reports_steps_and_throughput() {
        let mut sys = water_box(3, 3, 3, 60);
        sys.thermalize(300.0, 61);
        let mut e = Engine::builder().system(sys).quick().build().unwrap();
        let s = e.run(4);
        assert_eq!(s.steps, 4);
        assert_eq!(s.atoms, e.system.n_atoms());
        assert!((s.simulated_fs - 4.0).abs() < 1e-12);
        assert!(s.wall_s > 0.0);
        assert!(s.us_per_day > 0.0);
        assert!(s.energy_start.is_finite() && s.energy_end.is_finite());
        assert!(s.drift_kcal_per_mol_ns_atom.is_finite());
        // Telemetry off by default: phases and counters stay zero.
        assert_eq!(s.phases.total(), 0.0);
        assert_eq!(s.counters, Counters::default());
        // Empty runs are well-defined.
        let empty = e.run(0);
        assert_eq!(empty.steps, 0);
        assert_eq!(empty.us_per_day, 0.0);
        assert_eq!(empty.drift_kcal_per_mol_ns_atom, 0.0);
    }

    #[test]
    fn run_until_fs_lands_on_target_time() {
        let mut e = Engine::builder()
            .system(water_box(2, 2, 2, 62))
            .quick()
            .build()
            .unwrap();
        let s = e.run_until_fs(5.0);
        assert_eq!(s.steps, 5);
        assert!((e.time_fs() - 5.0).abs() < 1e-9);
        // A target behind the clock is a no-op.
        let s = e.run_until_fs(3.0);
        assert_eq!(s.steps, 0);
        assert_eq!(e.step_count(), 5);
    }

    #[test]
    fn telemetry_phases_cover_the_step() {
        use crate::telemetry::ManualClock;
        let mut sys = water_box(3, 3, 3, 63);
        sys.thermalize(300.0, 64);
        let mut e = Engine::builder()
            .system(sys)
            .quick()
            .telemetry(TelemetryLevel::Phases)
            .build()
            .unwrap();
        let s = e.run(3);
        assert_eq!(e.telemetry().profile().steps, 3);
        // Every structural phase of a GSE step gets non-zero time.
        for phase in [
            Phase::ShortRange,
            Phase::GseSpread,
            Phase::Fft,
            Phase::Interpolate,
            Phase::Bonded,
            Phase::Constraints,
            Phase::Integration,
        ] {
            assert!(
                e.telemetry().profile().phase_ns(phase) > 0,
                "phase {phase:?} recorded no time"
            );
        }
        // Counters moved too. The cold-stream build happened at engine
        // construction, so it shows in the cumulative profile but not in
        // the run's diff.
        assert!(s.counters.pairs_evaluated > 0);
        assert_eq!(s.counters.rebuilds_initial, 0, "cold build predates run");
        assert_eq!(e.profile().counters.rebuilds_initial, 1);
        assert!(s.counters.fft_lines > 0);
        // The GSE work counters are exact functions of the charged-atom
        // count and the stencil shape: 81 charged atoms × stencil volume
        // per step, and one bin per (charged atom, x-stencil slot).
        assert!(s.counters.spread_points > 0);
        assert_eq!(s.counters.spread_points, s.counters.interp_points);
        assert!(s.counters.gse_bins_visited > 0);
        assert_eq!(s.counters.spread_points % s.counters.gse_bins_visited, 0);
        assert!(s.phases.total() > 0.0);
        assert!(
            s.phase_coverage() > 0.5,
            "phases cover {:.0}% of wall time",
            s.phase_coverage() * 100.0
        );

        // With an injected ManualClock the attribution is deterministic.
        let mut sys = water_box(2, 2, 2, 65);
        sys.thermalize(300.0, 66);
        let run = |sys: &System| {
            let mut e = Engine::builder()
                .system(sys.clone())
                .quick()
                .telemetry(TelemetryLevel::Phases)
                .clock(Box::new(ManualClock::new(3)))
                .build()
                .unwrap();
            e.run(2);
            let p = *e.telemetry().profile();
            Phase::ALL.map(|ph| p.phase_ns(ph))
        };
        assert_eq!(run(&sys), run(&sys));
    }

    #[test]
    fn reset_telemetry_zeroes_the_profile() {
        let mut e = Engine::builder()
            .system(water_box(2, 2, 2, 67))
            .quick()
            .telemetry(TelemetryLevel::Counters)
            .build()
            .unwrap();
        e.run(2);
        assert!(e.profile().counters.pairs_evaluated > 0);
        e.reset_telemetry();
        assert_eq!(e.profile().counters, Counters::default());
        assert_eq!(e.profile().steps, 0);
    }

    fn state_bits(e: &Engine) -> Vec<(u64, u64, u64)> {
        e.system
            .positions
            .iter()
            .chain(&e.system.velocities)
            .map(|p| (p.x.to_bits(), p.y.to_bits(), p.z.to_bits()))
            .collect()
    }

    #[test]
    fn full_checkpoint_resume_is_bitwise_mid_respa() {
        // Checkpoint at a step that is *not* a RESPA outer boundary, with a
        // stochastic thermostat: the resume must adopt the cached long
        // forces and the RNG state verbatim for the continuation to match.
        let build_sys = || {
            let mut s = water_box(2, 2, 2, 70);
            s.thermalize(300.0, 71);
            s
        };
        let mut cfg = EngineConfig::quick();
        cfg.respa = RespaSchedule { kspace_interval: 2 };
        cfg.thermostat = Thermostat::Langevin {
            t_kelvin: 300.0,
            gamma_per_ps: 1.0,
        };
        let mut reference = Engine::builder()
            .system(build_sys())
            .config(cfg)
            .telemetry(TelemetryLevel::Counters)
            .build()
            .unwrap();
        reference.run(3); // 3 % 2 != 0: mid RESPA cycle
        let cp = reference.checkpoint();
        reference.run(5);
        let want = state_bits(&reference);
        let want_profile = reference.profile();

        // Fresh-process analogue: serialize, rebuild from topology, resume.
        let json = serde_json::to_string(&cp).unwrap();
        let back: crate::trajectory::Checkpoint = serde_json::from_str(&json).unwrap();
        let mut resumed = Engine::builder()
            .system(build_sys())
            .config(cfg)
            .telemetry(TelemetryLevel::Counters)
            .resume_from(back)
            .build()
            .unwrap();
        assert_eq!(resumed.step_count(), 3);
        resumed.run(5);
        assert_eq!(state_bits(&resumed), want, "resumed trajectory diverged");
        assert_eq!(resumed.profile(), want_profile, "telemetry diverged");
    }

    #[test]
    fn restore_rejects_bad_checkpoints() {
        let mut e = Engine::builder()
            .system(water_box(2, 2, 2, 72))
            .quick()
            .build()
            .unwrap();
        e.run(2);
        let cp = e.checkpoint();

        let mut wrong_version = cp.clone();
        wrong_version.version = 1;
        assert_eq!(
            e.restore(&wrong_version),
            Err(EngineError::CheckpointVersion {
                found: 1,
                expected: crate::trajectory::CHECKPOINT_VERSION,
            })
        );

        // In-place corruption that still parses: digest catches it.
        let mut tampered = cp.clone();
        tampered.velocities[0].x += 1.0;
        assert_eq!(e.restore(&tampered), Err(EngineError::CheckpointCorrupt));

        // Wrong topology.
        let mut bigger = Engine::builder()
            .system(water_box(3, 3, 3, 73))
            .quick()
            .build()
            .unwrap();
        assert_eq!(
            bigger.restore(&cp),
            Err(EngineError::CheckpointMismatch("atom count"))
        );

        // Wrong timestep.
        let mut other_dt = Engine::builder()
            .system(water_box(2, 2, 2, 72))
            .quick()
            .dt_fs(2.0)
            .build()
            .unwrap();
        assert_eq!(
            other_dt.restore(&cp),
            Err(EngineError::CheckpointMismatch("dt_fs"))
        );

        // The untouched checkpoint still restores fine afterwards.
        assert_eq!(e.restore(&cp), Ok(()));
    }

    #[test]
    fn watchdog_passes_healthy_run_and_counts_checks() {
        let mut sys = water_box(2, 2, 2, 74);
        sys.thermalize(300.0, 75);
        let mut e = Engine::builder()
            .system(sys)
            .quick()
            .watchdog(WatchdogConfig::default())
            .telemetry(TelemetryLevel::Counters)
            .build()
            .unwrap();
        let summary = e.try_run(4).expect("healthy run must pass the watchdog");
        assert_eq!(summary.steps, 4);
        assert_eq!(e.profile().counters.watchdog_checks, 4);
    }

    #[test]
    fn watchdog_trips_on_numerical_blowup() {
        let mut sys = lj_fluid(64, 0.8, 80);
        sys.thermalize(120.0, 81);
        let mut cfg = EngineConfig::quick();
        cfg.kspace = KspaceMethod::None;
        let mut e = Engine::builder()
            .system(sys)
            .config(cfg)
            .watchdog(WatchdogConfig {
                max_drift_kcal_per_atom: 0.5,
            })
            .build()
            .unwrap();
        // Inject a catastrophic velocity blowup; with dt = 1 fs atoms now
        // tunnel through each other and energy conservation collapses.
        for v in &mut e.system.velocities {
            *v = *v * 1e3;
        }
        let err = e.try_run(20).expect_err("watchdog must trip");
        assert!(
            matches!(
                err,
                EngineError::EnergyDrift { .. }
                    | EngineError::NonFiniteForce { .. }
                    | EngineError::SaturatedForce { .. }
            ),
            "unexpected error: {err:?}"
        );
        // The error message is human-readable.
        assert!(!err.to_string().is_empty());
    }

    /// A pair force beyond `MAX_FORCE` reaches `f_short` clamped and
    /// finite, so only the sink's saturation record can flag it. Plant one
    /// water 0.05 Å onto another (rigidly, so SETTLE is undisturbed) with
    /// the drift guard off: the next `try_step` must fail on the serial,
    /// parallel and 2×2×2-sharded paths alike, naming the same atom.
    #[test]
    fn watchdog_trips_on_saturated_pair_force() {
        let mut sys = water_box(6, 6, 6, 9);
        sys.nb.cutoff = 5.0;
        sys.nb.skin = 1.0;
        sys.nb.ewald_alpha = 3.0 / 5.0;
        let [a, b] = [sys.topology.waters[0], sys.topology.waters[1]];
        let shift = sys.positions[a[0]] + Vec3::new(0.05, 0.0, 0.0) - sys.positions[b[0]];
        let mut errors = Vec::new();
        for (parallelism, grid) in [
            (Parallelism::Serial, ShardGrid::single()),
            (Parallelism::Parallel, ShardGrid::single()),
            (Parallelism::Serial, ShardGrid::new(2, 2, 2)),
        ] {
            let mut cfg = EngineConfig::quick();
            cfg.parallelism = parallelism;
            cfg.decomposition = grid;
            let mut e = Engine::builder()
                .system(sys.clone())
                .config(cfg)
                .watchdog(WatchdogConfig {
                    max_drift_kcal_per_atom: f64::INFINITY,
                })
                .build()
                .unwrap();
            e.try_step().expect("the lattice itself is healthy");
            assert_eq!(e.ws.nonbonded.saturation(), None);
            for &i in &b {
                e.system.positions[i] += shift;
            }
            let err = e
                .try_step()
                .expect_err("a saturated pair must trip the watchdog");
            assert!(
                e.f_short.iter().all(|f| f.is_finite()),
                "the saturated force itself stays finite"
            );
            match err {
                EngineError::SaturatedForce { step, atom, clamps } => {
                    assert_eq!(step, 2);
                    assert!(a.contains(&atom) || b.contains(&atom), "atom {atom}");
                    assert!(clamps > 0);
                }
                other => panic!("unexpected error: {other:?}"),
            }
            errors.push(err);
        }
        assert!(errors.windows(2).all(|w| w[0] == w[1]), "{errors:?}");
    }
}
