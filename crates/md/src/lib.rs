//! # anton2-md — the molecular dynamics engine substrate
//!
//! A real, working all-atom MD engine: the workload that the Anton 2 machine
//! model executes. Everything is implemented from scratch on `std` + small
//! utility crates:
//!
//! * math & conventions: [`vec3`], [`pbc`], [`units`], [`erfc`];
//! * chemistry: [`topology`], [`forcefield`], synthetic [`builders`];
//! * nonbonded machinery: [`cells`], [`neighbor`], [`pairkernel`], and the
//!   PPIM-style streaming engine in [`stream`];
//! * bonded terms: [`bonded`];
//! * electrostatics: classic [`ewald`] (the oracle) and grid-based [`gse`]
//!   (Gaussian-split Ewald, the Anton method family) on `anton2-fft`;
//! * rigid constraints: [`constraints`] (SHAKE/RATTLE) and [`settle`];
//! * dynamics: [`integrate`] (velocity Verlet + RESPA), [`thermostat`],
//!   [`minimize`];
//! * Anton's determinism property: [`fixedpoint`] force accumulation;
//! * the serial reference [`engine`] and [`observables`];
//! * step-phase timing and hardware-meaningful counters: [`telemetry`].

pub mod bonded;
pub mod builders;
pub mod cells;
pub mod constraints;
pub mod engine;
pub mod erfc;
pub mod ewald;
mod exchange;
pub mod fixedpoint;
pub mod forcefield;
pub mod gse;
pub mod integrate;
pub mod minimize;
pub mod neighbor;
pub mod observables;
pub mod pairkernel;
pub mod pbc;
pub mod pressure;
#[cfg(test)]
mod proptests;
pub mod settle;
pub mod shard;
pub mod stream;
pub mod system;
pub mod telemetry;
pub mod thermostat;
pub mod topology;
pub mod trajectory;
pub mod units;
pub mod vec3;

/// The blessed session surface: everything needed to configure, run,
/// checkpoint, and profile a simulation, in one import.
///
/// ```
/// use anton2_md::prelude::*;
///
/// let mut engine = EngineBuilder::default()
///     .system(anton2_md::builders::water_box(3, 3, 3, 1))
///     .quick()
///     .telemetry(TelemetryLevel::Counters)
///     .build()
///     .expect("valid configuration");
/// let summary: RunSummary = engine.run(2);
/// let cp: Checkpoint = engine.checkpoint();
/// assert_eq!(summary.steps, 2);
/// assert_eq!(cp.step, 2);
/// ```
///
/// Prefer this over deep module paths (`anton2_md::engine::…`,
/// `anton2_md::telemetry::…`) for session-level code: the prelude is the
/// stable API surface, while module paths expose implementation detail
/// that may move between crates' internals.
pub mod prelude {
    pub use crate::engine::{
        Engine, EngineBuilder, EngineConfig, EngineError, KspaceMethod, Parallelism, RunSummary,
        Thermostat, WatchdogConfig,
    };
    pub use crate::forcefield::{ForceField, NonbondedSettings};
    pub use crate::integrate::RespaSchedule;
    pub use crate::pbc::PbcBox;
    pub use crate::pressure::BerendsenBarostat;
    pub use crate::shard::{ShardGrid, ShardSummary};
    pub use crate::system::System;
    pub use crate::telemetry::{
        Counters, MeasuredBreakdownUs, PhaseBreakdownUs, StepProfile, Telemetry, TelemetryLevel,
    };
    pub use crate::topology::Topology;
    pub use crate::trajectory::{Checkpoint, ShardImage, CHECKPOINT_VERSION};
    pub use crate::vec3::{v3, Vec3};
}

// Legacy root re-exports, kept so existing call sites compile unchanged.
// Deprecated in favor of [`prelude`], which carries the complete session
// surface (builder, summary, checkpoint, decomposition, telemetry types);
// new code should `use anton2_md::prelude::*`.
pub use engine::{Engine, EngineBuilder, EngineError, RunSummary};
pub use forcefield::{ForceField, NonbondedSettings};
pub use pbc::PbcBox;
pub use system::System;
pub use telemetry::{StepProfile, Telemetry, TelemetryLevel};
pub use topology::Topology;
pub use vec3::{v3, Vec3};
