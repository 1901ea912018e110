//! Spatial domain decomposition of the range-limited engine.
//!
//! Anton 2 assigns each node a box of space (a *home box*) and imports the
//! half-shell of surrounding atoms it needs via the NT method, so every
//! pairwise interaction is computed exactly once on exactly one node. This
//! module is the CPU analogue: a [`ShardGrid`] partitions the simulation
//! box into ℓ×m×n shards mapped onto the nonbonded stream's cell grid, and
//! a `ShardSet` (crate-internal, owned by the engine) gives every shard
//!
//! * an **ownership plan** — the sorted stream slots whose cells fall in
//!   the shard's region; each working-list row is evaluated by exactly the
//!   shard that owns it;
//! * an **import region** — the deduplicated set of slots appearing as
//!   partners in the shard's rows but owned elsewhere: the half-shell
//!   traversal of the stream build at `cutoff + skin`, restricted to actual
//!   candidates. This is owner-computes half-shell import, not the NT
//!   method's tower and plate; F6 puts its volume at 1.08–2.32× the NT
//!   import volume (8 to 512 nodes);
//! * a **shard-local SoA mirror** of positions/charges/LJ types, poisoned
//!   with NaN / `u32::MAX` outside `owned ∪ imports` so a read outside the
//!   planned import region corrupts the pair (caught by `debug_assert!`
//!   and by the bitwise-identity tests) instead of silently using data the
//!   real machine would not have;
//! * its own fixed-point force image and [`Telemetry`] sink (per-shard
//!   phase times, pair, clamp and exchange counters).
//!
//! **Bitwise identity with the single-image engine** is the load-bearing
//! contract, and it rests on the same argument as thread-count
//! independence (DESIGN.md §9): forces accumulate in fixed point. Each
//! shard evaluates its owned rows against its local mirror with the shared
//! row evaluator, so every pair force, and every row's energy sum, is the
//! same pure function of the two atoms whichever shard computes it; the
//! shard adds the converted integers into its own image
//! (`ShardSet::evaluate`), and the driver adds the shard images into one
//! (`ShardSet::merge_forces`). Integer addition is associative and
//! commutative, so the merged image — and everything integrated from it —
//! is bit for bit the single-image one at any shard count, in any order.
//!
//! Shards are evaluated one after another on the calling thread. When the
//! stream falls back to the all-pairs path mid-run (a barostat shrinking
//! the box below three cells per axis), the decomposition degrades to
//! shard 0 owning everything, which is exactly the single-image engine.

use crate::cells::CellGrid;
use crate::fixedpoint::FixedAccumulator;
use crate::forcefield::PairTable;
use crate::stream::{
    evaluate_rows, Accumulate, NonbondedStream, RowScratch, SlotData, Tally, ROW_SEGMENT,
};
use crate::system::System;
use crate::telemetry::{Counters, Phase, PhaseBreakdownUs, StepProfile, Telemetry, TelemetryLevel};
use crate::vec3::Vec3;
use serde::Serialize;

/// An ℓ×m×n spatial decomposition of the simulation box. `1×1×1` (the
/// default) is the single-image engine; anything larger maps shards onto
/// the nonbonded cell grid, so it requires the cell path (≥ 3 cells per
/// axis at `cutoff + skin`) and at most one shard per cell per axis —
/// validated by `EngineBuilder::build` with a typed
/// `EngineError::Decomposition`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct ShardGrid {
    /// Shards along x.
    pub l: usize,
    /// Shards along y.
    pub m: usize,
    /// Shards along z.
    pub n: usize,
}

impl Default for ShardGrid {
    fn default() -> Self {
        ShardGrid::single()
    }
}

impl ShardGrid {
    /// An ℓ×m×n shard grid.
    pub fn new(l: usize, m: usize, n: usize) -> Self {
        ShardGrid { l, m, n }
    }

    /// The single-image decomposition (one shard owning the whole box).
    pub fn single() -> Self {
        ShardGrid { l: 1, m: 1, n: 1 }
    }

    /// Total shard count.
    pub fn count(&self) -> usize {
        self.l * self.m * self.n
    }

    /// Whether this is the single-image decomposition.
    pub fn is_single(&self) -> bool {
        self.count() == 1
    }

    /// Check the grid against `system`'s geometry: every axis ≥ 1, and for
    /// non-trivial grids the box must host a cell grid at `cutoff + skin`
    /// with at least one cell per shard per axis. Returns an actionable
    /// message on failure (wrapped into `EngineError::Decomposition`).
    pub(crate) fn validate(&self, system: &System) -> Result<(), String> {
        if self.l == 0 || self.m == 0 || self.n == 0 {
            return Err(format!(
                "shard grid {}x{}x{} has a zero axis; every axis needs at least one shard",
                self.l, self.m, self.n
            ));
        }
        if self.is_single() {
            return Ok(());
        }
        let range = system.nb.cutoff + system.nb.skin;
        match CellGrid::dims_for(&system.pbc, range) {
            None => Err(format!(
                "box {:.2}x{:.2}x{:.2} A cannot host a cell grid (>= 3 cells per axis) at \
                 cutoff+skin = {:.2} A, so it cannot be decomposed; use a 1x1x1 grid, enlarge \
                 the box, or shrink the cutoff",
                system.pbc.lx, system.pbc.ly, system.pbc.lz, range
            )),
            Some((ncx, ncy, ncz)) => {
                if self.l > ncx || self.m > ncy || self.n > ncz {
                    Err(format!(
                        "shard grid {}x{}x{} exceeds the {}x{}x{} cell grid at cutoff+skin = \
                         {:.2} A; each shard needs at least one full cell per axis, so at most \
                         {}x{}x{} shards fit this box",
                        self.l, self.m, self.n, ncx, ncy, ncz, range, ncx, ncy, ncz
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// One spatial domain: its ownership plan, import region, NaN-poisoned
/// local SoA mirror, fixed-point force image and telemetry sink.
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) id: u32,
    /// Sorted stream slots owned by this shard, ascending. These are the
    /// working-list rows the shard evaluates.
    pub(crate) owned: Vec<u32>,
    /// Sorted stream slots this shard reads but does not own (partners of
    /// its rows owned elsewhere), deduplicated, in first-seen order.
    /// Refreshed from the driver every step by the exchange.
    pub(crate) imports: Vec<u32>,
    /// How many of this shard's owned positions other shards import each
    /// step (the export side of the exchange traffic).
    pub(crate) exported: u64,
    /// Full-length local position mirror; NaN outside `owned ∪ imports`.
    pub(crate) local_pos: Vec<Vec3>,
    /// Full-length local charge mirror; NaN outside the region.
    pub(crate) local_charge: Vec<f64>,
    /// Full-length local LJ-type mirror; `u32::MAX` (an out-of-bounds
    /// table row) outside the region.
    pub(crate) local_lj_type: Vec<u32>,
    /// Full-length fixed-point forces from this shard's rows: its owned
    /// slots and the partners it imported.
    pub(crate) image: FixedAccumulator,
    /// Energies, clamps and pair counts of this shard's last evaluation.
    pub(crate) tally: Tally,
    /// Per-shard telemetry: Exchange/ShortRange/GseSpread phase times plus
    /// pair and exchange counters for this shard's slice of the step.
    pub(crate) tel: Telemetry,
}

/// Per-shard slice of a `RunSummary`: what one domain owned, imported,
/// exported, and spent its time on over the summarized steps.
#[derive(Clone, Debug, Serialize)]
pub struct ShardSummary {
    /// Shard id in the ℓ×m×n grid (x-major, z fastest).
    pub shard: u32,
    /// Stream slots this shard owned at the end of the run.
    pub atoms_owned: u64,
    /// Import-region size (positions copied in per step).
    pub atoms_imported: u64,
    /// Owned positions served to other shards' import regions per step.
    pub atoms_exported: u64,
    /// Per-phase wall-clock of this shard's work over the summarized steps.
    pub phases: PhaseBreakdownUs,
    /// This shard's work counters over the summarized steps.
    pub counters: Counters,
}

/// The decomposition: all shards plus the stream-revision bookkeeping that
/// keeps the plans in sync with list rebuilds.
#[derive(Debug)]
pub(crate) struct ShardSet {
    grid: ShardGrid,
    pub(crate) shards: Vec<Shard>,
    /// Owning shard id per sorted slot.
    pub(crate) shard_of_slot: Vec<u32>,
    /// Generation-stamped dedup scratch for import planning.
    stamp: Vec<u64>,
    stamp_gen: u64,
    /// Stream revision the current plans were built against.
    seen_revision: u64,
}

impl ShardSet {
    /// An empty decomposition for `grid`; plans are built lazily by
    /// [`ShardSet::sync`] once the stream exists. Per-shard telemetry runs
    /// at `level` (the engine's configured level).
    pub(crate) fn new(grid: ShardGrid, level: TelemetryLevel) -> Self {
        ShardSet {
            grid,
            shards: (0..grid.count() as u32)
                .map(|id| Shard {
                    id,
                    owned: Vec::new(),
                    imports: Vec::new(),
                    exported: 0,
                    local_pos: Vec::new(),
                    local_charge: Vec::new(),
                    local_lj_type: Vec::new(),
                    image: FixedAccumulator::default(),
                    tally: Tally::default(),
                    tel: Telemetry::new(level),
                })
                .collect(),
            shard_of_slot: Vec::new(),
            stamp: Vec::new(),
            stamp_gen: 0,
            seen_revision: 0,
        }
    }

    /// Number of shards.
    pub(crate) fn len(&self) -> usize {
        self.shards.len()
    }

    /// Bring the plans up to date with the stream: a list rebuild (new
    /// permutation, cells and rows) re-plans everything.
    pub(crate) fn sync(&mut self, stream: &NonbondedStream) {
        if self.seen_revision != stream.revision {
            self.plan(stream);
            self.seen_revision = stream.revision;
        }
    }

    /// Rebuild ownership, import regions and local mirrors from a stream
    /// rebuild. Runs at rebuild cadence, not per step.
    fn plan(&mut self, stream: &NonbondedStream) {
        let ns = stream.pos.len();
        self.shard_of_slot.resize(ns, 0);
        let cells_tracked = stream.cell_ids.len() == ns;
        match (stream.cell_dims, cells_tracked) {
            (Some((ncx, ncy, ncz)), true) => {
                let g = self.grid;
                for s in 0..ns {
                    let c = stream.cell_ids[stream.order[s] as usize] as usize;
                    let cz = c % ncz;
                    let cy = (c / ncz) % ncy;
                    let cx = c / (ncy * ncz);
                    // Proportional floor map: cell cx of ncx → shard
                    // cx·l/ncx of l. Monotone, onto (l ≤ ncx is validated
                    // at build time), and independent of atom positions.
                    let sx = cx * g.l / ncx;
                    let sy = cy * g.m / ncy;
                    let sz = cz * g.n / ncz;
                    self.shard_of_slot[s] = ((sx * g.m + sy) * g.n + sz) as u32;
                }
            }
            // All-pairs fallback: no spatial structure to decompose over —
            // shard 0 owns everything (bitwise the single-image engine).
            _ => {
                for so in self.shard_of_slot.iter_mut() {
                    *so = 0;
                }
            }
        }

        self.stamp.resize(ns, 0);
        for shard in &mut self.shards {
            shard.owned.clear();
            shard.imports.clear();
            shard.exported = 0;
        }
        for s in 0..ns {
            self.shards[self.shard_of_slot[s] as usize]
                .owned
                .push(s as u32);
        }
        // Import region = partners of owned rows owned elsewhere: exactly
        // the slots the row evaluator will read, the `cutoff + skin` halo.
        for shard in &mut self.shards {
            self.stamp_gen += 1;
            let gen = self.stamp_gen;
            for &s in &shard.owned {
                let s = s as usize;
                for &t in &stream.partners[stream.start[s]..stream.start[s + 1]] {
                    let t = t as usize;
                    if self.shard_of_slot[t] != shard.id && self.stamp[t] != gen {
                        self.stamp[t] = gen;
                        shard.imports.push(t as u32);
                    }
                }
            }
            // Poisoned local mirrors: only the shard's region gets real
            // parameters; positions arrive via the per-step exchange.
            shard.local_pos.clear();
            shard
                .local_pos
                .resize(ns, Vec3::new(f64::NAN, f64::NAN, f64::NAN));
            shard.local_charge.clear();
            shard.local_charge.resize(ns, f64::NAN);
            shard.local_lj_type.clear();
            shard.local_lj_type.resize(ns, u32::MAX);
            for &s in shard.owned.iter().chain(&shard.imports) {
                let s = s as usize;
                shard.local_charge[s] = stream.charge[s];
                shard.local_lj_type[s] = stream.lj_type[s];
            }
        }
        // Export accounting: every import of shard j is an export of the
        // slot's owner.
        for j in 0..self.shards.len() {
            for k in 0..self.shards[j].imports.len() {
                let t = self.shards[j].imports[k] as usize;
                let owner = self.shard_of_slot[t] as usize;
                self.shards[owner].exported += 1;
            }
        }
    }

    /// Every shard runs the shared row evaluator ([`evaluate_rows`]) over
    /// its owned rows, reading its local mirror — so its forces prove the
    /// shard touched only its planned region — and adds the pair forces
    /// into its own fixed-point image. Serial over shards, timed and
    /// counted per shard; writes nothing outside the shards.
    pub(crate) fn evaluate(&mut self, stream: &NonbondedStream, table: &PairTable) {
        let ns = stream.pos.len();
        let mut scratch: RowScratch<ROW_SEGMENT> = RowScratch::new();
        for shard in &mut self.shards {
            let t0 = shard.tel.start();
            let atoms = SlotData {
                pos: &shard.local_pos,
                charge: &shard.local_charge,
                lj_type: &shard.local_lj_type,
            };
            shard.image.resize_zeroed(ns);
            let sink = evaluate_rows(
                stream,
                atoms,
                table,
                shard.owned.iter().map(|&s| s as usize),
                &mut scratch,
                Accumulate::new(shard.image.fixed_mut()),
            );
            shard.tally = sink.tally;
            shard.tel.count_pairs(sink.tally.pairs, sink.tally.cut);
            shard.tel.count_fixedpoint_clamps(sink.tally.clamps);
            shard.tel.stop(Phase::ShortRange, t0);
        }
    }

    /// Driver side: add every shard's image into `image` (reset to the
    /// stream's length first) and total their tallies. Integer addition,
    /// so the shard order does not matter.
    pub(crate) fn merge_forces(
        &self,
        stream: &NonbondedStream,
        image: &mut FixedAccumulator,
    ) -> Tally {
        image.resize_zeroed(stream.pos.len());
        let mut total = Tally::default();
        for shard in &self.shards {
            image.merge(&shard.image);
            total.add(&shard.tally);
        }
        total
    }

    /// Snapshot every shard's accumulated profile (for RunSummary diffs).
    pub(crate) fn profiles(&self) -> Vec<StepProfile> {
        self.shards.iter().map(|s| *s.tel.profile()).collect()
    }

    /// Per-shard summaries over the steps since `before` (one snapshot per
    /// shard, from [`ShardSet::profiles`]; an empty slice diffs from zero).
    pub(crate) fn summaries(&self, before: &[StepProfile]) -> Vec<ShardSummary> {
        let zero = StepProfile::default();
        self.shards
            .iter()
            .enumerate()
            .map(|(i, sh)| {
                let b = before.get(i).unwrap_or(&zero);
                let diff = sh.tel.profile().since(b);
                ShardSummary {
                    shard: sh.id,
                    atoms_owned: sh.owned.len() as u64,
                    atoms_imported: sh.imports.len() as u64,
                    atoms_exported: sh.exported,
                    phases: diff.phases_us(),
                    counters: diff.counters,
                }
            })
            .collect()
    }

    /// Capture per-shard state images for a checkpoint: each
    /// shard's owned atoms as global indices (through the stream's
    /// cell-sort permutation) with their positions and velocities, all
    /// stamped with `step`. The restore-side consistency barrier
    /// ([`crate::trajectory::Checkpoint::validate_shards`]) verifies the
    /// images were taken at one synchronized step, partition the atoms,
    /// and agree bitwise with the global arrays.
    pub(crate) fn images(
        &self,
        stream: &NonbondedStream,
        step: u64,
        positions: &[Vec3],
        velocities: &[Vec3],
    ) -> Vec<crate::trajectory::ShardImage> {
        self.shards
            .iter()
            .map(|sh| {
                let atoms: Vec<u32> = sh.owned.iter().map(|&s| stream.order[s as usize]).collect();
                crate::trajectory::ShardImage {
                    shard: sh.id,
                    step,
                    positions: atoms.iter().map(|&a| positions[a as usize]).collect(),
                    velocities: atoms.iter().map(|&a| velocities[a as usize]).collect(),
                    atoms,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::water_box;
    use crate::pairkernel::NonbondedEnergy;
    use crate::stream::{nonbonded_forces_streamed, NonbondedWorkspace};
    use crate::system::System;

    fn bits(forces: &[Vec3]) -> u64 {
        forces
            .iter()
            .map(|v| v.x.to_bits() ^ v.y.to_bits() ^ v.z.to_bits())
            .fold(0u64, |a, b| a.rotate_left(1) ^ b)
    }

    /// Shrink a water box's nonbonded settings so a small box still takes
    /// the cell path (3 cells per axis at cutoff+skin = 6).
    fn small_cell_system(seed: u64) -> System {
        let mut s = water_box(6, 6, 6, seed);
        s.nb.cutoff = 5.0;
        s.nb.skin = 1.0;
        s.nb.ewald_alpha = 3.0 / 5.0;
        s
    }

    fn sharded_forces(system: &System, grid: ShardGrid) -> (Vec<Vec3>, NonbondedEnergy) {
        let table = system.pair_table();
        let mut ws = NonbondedWorkspace::new();
        // Build the stream exactly as the engine would.
        ws.stream.ensure(system);
        let mut set = ShardSet::new(grid, TelemetryLevel::Counters);
        set.sync(ws.stream());
        set.exchange(ws.stream(), &mut Telemetry::off());
        set.evaluate(ws.stream(), &table);
        let tally = set.merge_forces(&ws.stream, &mut ws.image);
        let mut f = vec![Vec3::ZERO; system.n_atoms()];
        let mut tel = Telemetry::off();
        let t0 = tel.start();
        let e = ws.finish(&tally, &mut f, &mut tel, t0);
        (f, e)
    }

    #[test]
    fn sharded_short_range_is_bitwise_single_image() {
        let s = small_cell_system(41);
        let table = s.pair_table();
        for parallel in [false, true] {
            let mut ws = NonbondedWorkspace::new();
            let mut f0 = vec![Vec3::ZERO; s.n_atoms()];
            let e0 = nonbonded_forces_streamed(&s, &table, &mut ws, &mut f0, parallel);
            for grid in [
                ShardGrid::new(1, 1, 1),
                ShardGrid::new(2, 1, 1),
                ShardGrid::new(2, 2, 1),
                ShardGrid::new(2, 2, 2),
                ShardGrid::new(3, 3, 3),
            ] {
                let (f, e) = sharded_forces(&s, grid);
                assert_eq!(e0.lj.to_bits(), e.lj.to_bits(), "{grid:?}");
                assert_eq!(
                    e0.coulomb_real.to_bits(),
                    e.coulomb_real.to_bits(),
                    "{grid:?}"
                );
                assert_eq!(e0.virial.to_bits(), e.virial.to_bits(), "{grid:?}");
                assert_eq!(e0.virial_lj.to_bits(), e.virial_lj.to_bits(), "{grid:?}");
                assert_eq!(bits(&f0), bits(&f), "forces differ for {grid:?}");
            }
        }
    }

    #[test]
    fn shards_partition_slots_and_import_disjointly() {
        let s = small_cell_system(42);
        let mut ws = NonbondedWorkspace::new();
        ws.stream.ensure(&s);
        let mut set = ShardSet::new(ShardGrid::new(2, 2, 2), TelemetryLevel::Off);
        set.sync(ws.stream());
        let n = s.n_atoms();
        let mut seen = vec![0u32; n];
        let mut total_imports = 0u64;
        let mut total_exports = 0u64;
        for shard in &set.shards {
            for &s in &shard.owned {
                seen[s as usize] += 1;
            }
            for &t in &shard.imports {
                assert_ne!(
                    set.shard_of_slot[t as usize], shard.id,
                    "imported slot is owned"
                );
            }
            total_imports += shard.imports.len() as u64;
            total_exports += shard.exported;
        }
        assert!(seen.iter().all(|&c| c == 1), "slots not partitioned");
        assert_eq!(total_imports, total_exports, "import/export asymmetry");
        assert!(total_imports > 0, "2x2x2 on a 3-cell grid must import");
    }

    #[test]
    fn fallback_box_degrades_to_single_shard() {
        // 15.5 A box at range 10: the stream takes the all-pairs fallback,
        // so shard 0 must own everything and import nothing.
        let s = water_box(5, 5, 5, 43);
        let table = s.pair_table();
        let mut ws = NonbondedWorkspace::new();
        let mut f0 = vec![Vec3::ZERO; s.n_atoms()];
        let e0 = nonbonded_forces_streamed(&s, &table, &mut ws, &mut f0, false);
        let (f, e) = sharded_forces(&s, ShardGrid::new(2, 2, 2));
        assert_eq!(e0.lj.to_bits(), e.lj.to_bits());
        assert_eq!(bits(&f0), bits(&f));
    }

    #[test]
    fn grid_validation_produces_actionable_errors() {
        let s = small_cell_system(44);
        assert!(ShardGrid::new(1, 1, 1).validate(&s).is_ok());
        assert!(ShardGrid::new(3, 3, 3).validate(&s).is_ok());
        let err = ShardGrid::new(0, 1, 1).validate(&s).unwrap_err();
        assert!(err.contains("zero axis"), "{err}");
        let err = ShardGrid::new(4, 1, 1).validate(&s).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        assert!(err.contains("3x3x3"), "{err}");
        // Small box without a cell grid: any non-trivial decomposition is
        // rejected with the geometry in the message.
        let tiny = water_box(3, 3, 3, 45);
        let err = ShardGrid::new(2, 1, 1).validate(&tiny).unwrap_err();
        assert!(err.contains("cannot host a cell grid"), "{err}");
        assert!(ShardGrid::new(1, 1, 1).validate(&tiny).is_ok());
    }
}
