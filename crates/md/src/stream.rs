//! PPIM-style streaming nonbonded engine.
//!
//! Anton 2's HTIS resolves every per-pair decision *before* atom pairs enter
//! the PPIM pipelines: parameters are fetched, exclusions filtered, and the
//! pair stream arrives in a layout the pipelines can consume at line rate.
//! This module is the CPU analogue. At neighbor-list rebuild time it
//! prepares a [`NonbondedStream`]:
//!
//! * atoms permuted into **cell-major order** (the cell grid's own ordering)
//!   so the inner loop walks nearly-contiguous memory;
//! * positions/charges/LJ types gathered into SoA arrays in that order;
//! * one half neighbor list built directly in sorted index space at
//!   `range = cutoff + skin`, with the topology's exclusions baked out, so
//!   the force loop never calls `is_excluded`;
//! * per-pair LJ parameters and cutoff shifts resolved through a
//!   [`PairTable`] row lookup instead of `ForceField::lj` + `lj_shift_at`.
//!
//! The list has one radius and one epoch — the positions it was built at.
//! Between rebuilds only the positions are re-gathered (wrapped into the
//! primary cell, so the kernel can use a branch-based minimum image with no
//! divisions); once any atom has drifted more than `skin/2` from the epoch,
//! or the box changes, the stream is rebuilt from scratch. The HTIS itself
//! keeps no list at all (its match units regenerate the candidate stream
//! from the spatial decomposition every step), so build-and-reuse is the
//! only refresh mechanism the CPU stand-in needs (DESIGN.md §14).
//!
//! [`nonbonded_forces_streamed`] evaluates the stream either serially or
//! split into one contiguous row range per worker thread. Every pair —
//! single image, worker or shard — goes through one row evaluator,
//! `evaluate_rows`, which works match-then-compute like the HTIS: pass A
//! distance-tests a row's candidates and compacts the survivors, pass B
//! runs them [`LANES`] at a time through [`pair_interaction_lanes`], which
//! reads the screened Coulomb functions from the r²-indexed
//! [`crate::erfc::CoulombTable`], converts each pair force
//! once to fixed point ([`crate::fixedpoint`]) and hands it to the one
//! integer sink. Integer addition is associative, so which evaluator takes
//! which rows, and in what order the workers' or shards' full-length
//! images are added, cannot change a bit: serial, parallel and sharded
//! evaluation give identical forces and energies at any thread count
//! (DESIGN.md §9). Forces match the reference
//! `pairkernel::nonbonded_forces` to within the fixed-point quantum per
//! pair an atom takes part in. All buffers live in [`NonbondedWorkspace`],
//! so steady-state evaluation performs no heap allocation.

use crate::cells::CellGrid;
use crate::fixedpoint::{
    add3, from_fixed, sub3, to_fixed3, to_fixed_saturating, FixedAccumulator, MAX_FORCE,
};
use crate::forcefield::PairTable;
use crate::pairkernel::{pair_interaction_lanes, NonbondedEnergy, LANES};
use crate::pbc::{HalfBox, PbcBox};
use crate::system::System;
use crate::telemetry::{Phase, PhaseToken, Telemetry};
use crate::vec3::Vec3;
use rayon::prelude::*;

/// Fixed chunk count for the small-box all-pairs fallback stream build.
const FALLBACK_CHUNKS: usize = 16;

/// Why the stream had to be refreshed. Threaded out to the telemetry
/// counters so skin-triggered and box-triggered rebuilds are
/// distinguishable — a barostat run that rebuilds every coupling period
/// looks very different from a hot system churning through its skin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebuildReason {
    /// First build (cold stream).
    Initial,
    /// Some atom drifted more than `skin/2` from its build-time position.
    SkinExceeded,
    /// The periodic box changed (barostat rescale), so build-time geometry
    /// is invalid regardless of drift.
    BoxChanged,
    /// Explicitly invalidated (checkpoint restore, parameter change).
    Invalidated,
}

/// Per-cell build scratch: the concatenated partner stream of the cell's
/// atoms plus one partner count per atom. Reused across rebuilds.
#[derive(Clone, Debug, Default)]
struct CellScratch {
    partners: Vec<u32>,
    counts: Vec<u32>,
}

/// The prepared input stream of the range-limited kernel: cell-sorted SoA
/// atom data plus an exclusion-free half neighbor list in sorted index
/// space. See the module docs for the full contract.
#[derive(Clone, Debug)]
pub struct NonbondedStream {
    /// Sorted → original index map (`order[s]` is the original atom index).
    pub(crate) order: Vec<u32>,
    /// Wrapped positions in sorted order, re-gathered every evaluation.
    pub(crate) pos: Vec<Vec3>,
    /// Charges in sorted order (static between rebuilds).
    pub(crate) charge: Vec<f64>,
    /// LJ type indices in sorted order (static between rebuilds).
    pub(crate) lj_type: Vec<u32>,
    /// CSR row starts in sorted space, length `n + 1`.
    pub(crate) start: Vec<usize>,
    /// Partners in sorted space, within `range` of their row at the epoch;
    /// every partner has a higher sorted index than its row, rows are
    /// strictly ascending, exclusions are baked out.
    pub(crate) partners: Vec<u32>,
    /// Original-order positions the list was built at — the epoch the
    /// skin/2 drift criterion measures from.
    ref_positions: Vec<Vec3>,
    /// Cell id per atom in original order as of the last cell build; empty
    /// after a fallback build. Feeds the cell-churn counter.
    pub(crate) cell_ids: Vec<u32>,
    /// Box the stream was built for; a box change forces a rebuild.
    pub(crate) pbc: PbcBox,
    /// List range (cutoff + skin) at build time.
    range: f64,
    skin: f64,
    built: bool,
    /// Set by [`NonbondedStream::invalidate`]; distinguishes an explicit
    /// invalidation from a cold first build in the rebuild-reason counter.
    invalidated: bool,
    scratch: Vec<CellScratch>,
    /// Bumped on every rebuild (new permutation, cells and list). The shard
    /// layer watches this to know its ownership and import plans are
    /// stale.
    pub(crate) revision: u64,
    /// Cell-grid dimensions of the last build, `None` when the all-pairs
    /// fallback ran (no spatial structure to decompose over).
    pub(crate) cell_dims: Option<(usize, usize, usize)>,
}

impl NonbondedStream {
    fn new() -> Self {
        NonbondedStream {
            order: Vec::new(),
            pos: Vec::new(),
            charge: Vec::new(),
            lj_type: Vec::new(),
            start: Vec::new(),
            partners: Vec::new(),
            ref_positions: Vec::new(),
            cell_ids: Vec::new(),
            pbc: PbcBox::cubic(1.0),
            range: 0.0,
            skin: 0.0,
            built: false,
            invalidated: false,
            scratch: Vec::new(),
            revision: 0,
            cell_dims: None,
        }
    }

    /// Number of stored (unordered, non-excluded) candidate pairs.
    pub fn n_pairs(&self) -> usize {
        self.partners.len()
    }

    /// The stored pairs as original atom indices, row by row (inspection /
    /// tests).
    pub fn pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.pos.len()).flat_map(move |s| {
            self.partners[self.start[s]..self.start[s + 1]]
                .iter()
                .map(move |&t| (self.order[s], self.order[t as usize]))
        })
    }

    /// Force a full rebuild on the next evaluation (box-dependent state was
    /// changed externally, e.g. by a checkpoint restore).
    pub fn invalidate(&mut self) {
        self.built = false;
        self.invalidated = true;
    }

    /// The original-order positions the list was built at — the
    /// neighbor-list *epoch*. Checkpoints capture these so a resumed run
    /// can rebuild the identical permutation and list (see
    /// [`NonbondedWorkspace::rebuild_at_epoch`]). Empty before first build.
    pub fn ref_positions(&self) -> &[Vec3] {
        &self.ref_positions
    }

    /// The stream's own per-slot atom data, as the row evaluator reads it.
    pub(crate) fn atoms(&self) -> SlotData<'_> {
        SlotData {
            pos: &self.pos,
            charge: &self.charge,
            lj_type: &self.lj_type,
        }
    }

    /// Why the stream is stale for `system`, or `None` if it is current.
    /// Checked in priority order: cold/invalidated first, then geometry
    /// (box or range change, atom count), then skin drift.
    fn staleness(&self, system: &System) -> Option<RebuildReason> {
        if !self.built {
            return Some(if self.invalidated {
                RebuildReason::Invalidated
            } else {
                RebuildReason::Initial
            });
        }
        if self.pbc != system.pbc {
            return Some(RebuildReason::BoxChanged);
        }
        if self.range != system.nb.cutoff + system.nb.skin
            || self.ref_positions.len() != system.positions.len()
        {
            return Some(RebuildReason::Invalidated);
        }
        if self.needs_rebuild(&system.pbc, &system.positions) {
            return Some(RebuildReason::SkinExceeded);
        }
        None
    }

    /// Bring the stream up to date for `system`: re-gather wrapped
    /// positions while the list is current, rebuild it when it is stale.
    /// Returns the trigger and the rebuild's cell churn if one ran.
    pub(crate) fn ensure(&mut self, system: &System) -> Option<(RebuildReason, u64)> {
        match self.staleness(system) {
            None => {
                self.gather_positions(&system.positions);
                None
            }
            Some(reason) => Some((reason, self.rebuild(system))),
        }
    }

    /// [`NonbondedStream::ensure`] timed as [`Phase::NeighborRebuild`], with
    /// a rebuild counted by trigger reason, rows and cell churn.
    pub(crate) fn ensure_profiled(&mut self, system: &System, tel: &mut Telemetry) {
        let t0 = tel.start();
        if let Some((reason, cell_churn)) = self.ensure(system) {
            tel.count_rebuild(reason);
            tel.count_rows(self.pos.len() as u64, cell_churn);
        }
        tel.stop(Phase::NeighborRebuild, t0);
    }

    fn needs_rebuild(&self, pbc: &PbcBox, positions: &[Vec3]) -> bool {
        let limit_sq = (self.skin / 2.0) * (self.skin / 2.0);
        positions
            .iter()
            .zip(&self.ref_positions)
            .any(|(&p, &r)| pbc.dist_sq(p, r) > limit_sq)
    }

    /// Re-gather wrapped positions in sorted order (the only per-step work
    /// between rebuilds).
    fn gather_positions(&mut self, positions: &[Vec3]) {
        let pbc = self.pbc;
        for (ps, &o) in self.pos.iter_mut().zip(&self.order) {
            *ps = pbc.wrap(positions[o as usize]);
        }
    }

    /// Full rebuild: new permutation, gathered SoA arrays, the half list at
    /// `range` in sorted space. Reuses all buffers. Returns the cell churn:
    /// atoms whose cell assignment changed since the previous build (0 on a
    /// first build or next to a fallback build).
    fn rebuild(&mut self, system: &System) -> u64 {
        let pbc = system.pbc;
        let positions = &system.positions;
        let top = &system.topology;
        let n = positions.len();
        self.range = system.nb.cutoff + system.nb.skin;
        self.skin = system.nb.skin;
        self.pbc = pbc;
        self.built = true;
        self.invalidated = false;
        self.ref_positions.clear();
        self.ref_positions.extend_from_slice(positions);

        self.order.clear();
        let grid = CellGrid::build(&pbc, positions, self.range);
        match &grid {
            Some(g) => self.order.extend_from_slice(&g.atoms),
            None => self.order.extend(0..n as u32),
        }
        let range_sq = self.range * self.range;

        // Gather the SoA stream in sorted order.
        self.pos.clear();
        self.charge.clear();
        self.lj_type.clear();
        for &o in &self.order {
            let o = o as usize;
            self.pos.push(pbc.wrap(positions[o]));
            self.charge.push(top.charges[o]);
            self.lj_type.push(top.lj_types[o]);
        }

        let excl = &top.exclusions;
        let pos = &self.pos;
        let order = &self.order;
        let hb = HalfBox::new(&pbc);
        let (n_lists, cell_churn) = if let Some(grid) = &grid {
            // Half-shell traversal in sorted space: cell pair (c, c2) with
            // c2 > c means every partner index t exceeds the row index s
            // (cell spans are ascending in cell id), so rows come out
            // strictly ascending with no sort step. Displacements use the
            // cell-adjacency shift (no divisions, no rounding); a cell is at
            // least `range` and at most a third of the box wide, so for
            // every pair this test admits the shifted displacement is the
            // minimum image and agrees bitwise with the `HalfBox` fold the
            // kernel applies to the same wrapped positions.
            let ncells = grid.n_cells();
            if self.scratch.len() < ncells {
                self.scratch.resize_with(ncells, CellScratch::default);
            }
            self.scratch[..ncells]
                .par_iter_mut()
                .enumerate()
                .for_each(|(c, sc)| {
                    sc.partners.clear();
                    sc.counts.clear();
                    let lo = grid.cell_start[c];
                    let hi = grid.cell_start[c + 1];
                    let mut fwd = [(0usize, Vec3::ZERO); 26];
                    let flen = grid.forward_shifts(c, &mut fwd);
                    for s in lo..hi {
                        let ps = pos[s];
                        let oi = order[s] as usize;
                        let before = sc.partners.len();
                        for t in (s + 1)..hi {
                            let d = ps - pos[t];
                            if d.norm_sq() < range_sq && !excl.is_excluded(oi, order[t] as usize) {
                                sc.partners.push(t as u32);
                            }
                        }
                        for &(c2, shift) in &fwd[..flen] {
                            for t in grid.cell_start[c2]..grid.cell_start[c2 + 1] {
                                let d = (ps - pos[t]) - shift;
                                if d.norm_sq() < range_sq
                                    && !excl.is_excluded(oi, order[t] as usize)
                                {
                                    sc.partners.push(t as u32);
                                }
                            }
                        }
                        sc.counts.push((sc.partners.len() - before) as u32);
                    }
                });
            // Cell-churn accounting: how many atoms changed cell since the
            // previous build (incomparable grids just reset to 0).
            let mut churn = 0u64;
            let track = self.cell_ids.len() == n;
            if !track {
                self.cell_ids.clear();
                self.cell_ids.resize(n, 0);
            }
            for c in 0..ncells {
                for s in grid.cell_start[c]..grid.cell_start[c + 1] {
                    let o = grid.atoms[s] as usize;
                    let id = c as u32;
                    if track && self.cell_ids[o] != id {
                        churn += 1;
                    }
                    self.cell_ids[o] = id;
                }
            }
            (ncells, churn)
        } else {
            // Small box: all-pairs scan in fixed chunks over (sorted =
            // original) atom order.
            if self.scratch.len() < FALLBACK_CHUNKS {
                self.scratch
                    .resize_with(FALLBACK_CHUNKS, CellScratch::default);
            }
            self.scratch[..FALLBACK_CHUNKS]
                .par_iter_mut()
                .enumerate()
                .for_each(|(c, sc)| {
                    sc.partners.clear();
                    sc.counts.clear();
                    let lo = c * n / FALLBACK_CHUNKS;
                    let hi = (c + 1) * n / FALLBACK_CHUNKS;
                    for s in lo..hi {
                        let ps = pos[s];
                        let before = sc.partners.len();
                        for (t, &pt) in pos.iter().enumerate().skip(s + 1) {
                            if hb.min_image(ps - pt).norm_sq() < range_sq && !excl.is_excluded(s, t)
                            {
                                sc.partners.push(t as u32);
                            }
                        }
                        sc.counts.push((sc.partners.len() - before) as u32);
                    }
                });
            self.cell_ids.clear();
            (FALLBACK_CHUNKS, 0)
        };

        // Concatenate the per-cell streams into the CSR. Cells ascending
        // and atoms within a cell in span order give exactly sorted atom
        // order.
        self.start.clear();
        self.start.reserve(n + 1);
        self.start.push(0);
        let mut total = 0usize;
        for sc in &self.scratch[..n_lists] {
            for &cnt in &sc.counts {
                total += cnt as usize;
                self.start.push(total);
            }
        }
        debug_assert_eq!(self.start.len(), n + 1);
        self.partners.clear();
        self.partners.reserve(total);
        for sc in &self.scratch[..n_lists] {
            self.partners.extend_from_slice(&sc.partners);
        }

        self.cell_dims = grid.as_ref().map(|g| (g.nx, g.ny, g.nz));
        self.revision += 1;
        cell_churn
    }
}

/// All mutable state of the streaming kernel: the prepared stream, one
/// fixed-point image per worker thread of the parallel path, and the
/// full-length image those (or the shards' images) are added into. Owned
/// by the engine's `StepWorkspace`; steady-state evaluation allocates
/// nothing.
#[derive(Clone, Debug)]
pub struct NonbondedWorkspace {
    pub(crate) stream: NonbondedStream,
    parts: Vec<Part>,
    /// Fixed-point forces per sorted slot for the whole box.
    pub(crate) image: FixedAccumulator,
    /// The last evaluation's saturation: (original-order atom, clamped
    /// components), see [`NonbondedWorkspace::saturation`].
    saturation: Option<(usize, u64)>,
}

/// One worker's share of a parallel evaluation: its full-length
/// fixed-point image and its tally.
#[derive(Clone, Debug, Default)]
struct Part {
    image: FixedAccumulator,
    tally: Tally,
}

impl Default for NonbondedWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl NonbondedWorkspace {
    pub fn new() -> Self {
        NonbondedWorkspace {
            stream: NonbondedStream::new(),
            parts: Vec::new(),
            image: FixedAccumulator::default(),
            saturation: None,
        }
    }

    /// The prepared stream (inspection / tests).
    pub fn stream(&self) -> &NonbondedStream {
        &self.stream
    }

    /// Force a stream rebuild on the next evaluation.
    pub fn invalidate(&mut self) {
        self.stream.invalidate();
    }

    /// Rebuild the stream as of a checkpointed neighbor-list epoch:
    /// `system` must carry the epoch's reference positions (not the
    /// current ones). Reproduces the interrupted run's cell permutation and
    /// list bit-for-bit, so the drift trigger and pair order evolve
    /// identically after resume. Deliberately not routed through telemetry
    /// — the original build was already counted in the checkpointed
    /// profile.
    pub fn rebuild_at_epoch(&mut self, system: &System) {
        self.stream.rebuild(system);
    }

    /// Whether the last evaluation saturated: the atom of the lowest sorted
    /// slot whose row held a component beyond ±[`MAX_FORCE`] (or a NaN),
    /// and how many components saturated. The sink turns such a force into
    /// a finite, clamped one, so this — not a scan of the forces — is how
    /// the engine's watchdog sees a pair-stream blow-up. Recorded at every
    /// telemetry level.
    pub fn saturation(&self) -> Option<(usize, u64)> {
        self.saturation
    }

    /// Close an evaluation whose integer image is complete: convert each
    /// atom's total to f64 once, adding it to `forces` in original order,
    /// keep the tally's saturation, book its counters and stop the
    /// [`Phase::ShortRange`] clock started at `t0`.
    pub(crate) fn finish(
        &mut self,
        tally: &Tally,
        forces: &mut [Vec3],
        tel: &mut Telemetry,
        t0: PhaseToken,
    ) -> NonbondedEnergy {
        for (s, &o) in self.stream.order.iter().enumerate() {
            forces[o as usize] += self.image.force(s);
        }
        self.saturation = tally
            .saturated
            .map(|s| (self.stream.order[s as usize] as usize, tally.clamps));
        tel.count_pairs(tally.pairs, tally.cut);
        tel.count_fixedpoint_clamps(tally.clamps);
        tel.stop(Phase::ShortRange, t0);
        tally.energy()
    }
}

/// Candidates matched per pass-A segment of [`evaluate_rows`]. A DHFR row
/// averages ≈ 190 candidates, so nearly every row is one segment; longer
/// rows are processed segment by segment in order. 512 × 36 B = 18 KB of
/// stack, L1-resident.
pub(crate) const ROW_SEGMENT: usize = 512;

/// Pass-A output of [`evaluate_rows`] for one row segment: displacement,
/// r² and partner slot of every candidate inside the cutoff, compacted in
/// partner order. Lives on the evaluating thread's stack.
pub(crate) struct RowScratch<const SEG: usize> {
    dx: [f64; SEG],
    dy: [f64; SEG],
    dz: [f64; SEG],
    r_sq: [f64; SEG],
    slot: [u32; SEG],
}

impl<const SEG: usize> RowScratch<SEG> {
    pub(crate) fn new() -> Self {
        RowScratch {
            dx: [0.0; SEG],
            dy: [0.0; SEG],
            dz: [0.0; SEG],
            r_sq: [0.0; SEG],
            slot: [0; SEG],
        }
    }
}

/// The per-slot atom data [`evaluate_rows`] reads, in sorted stream order:
/// the stream's own SoA for the single image, a shard's NaN-poisoned
/// mirror for a shard.
#[derive(Clone, Copy)]
pub(crate) struct SlotData<'a> {
    pub(crate) pos: &'a [Vec3],
    pub(crate) charge: &'a [f64],
    pub(crate) lj_type: &'a [u32],
}

/// Everything a pair-stream evaluation adds up besides forces: energies
/// and virials in fixed point ([`FORCE_SCALE`](crate::fixedpoint::FORCE_SCALE)
/// units per kcal/mol, each row's sums converted once), saturated
/// components, and the pairs evaluated and cut. All integers, so tallies
/// of workers or shards add up to the same bits in any order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    /// LJ energy, real-space Coulomb energy, virial, LJ virial.
    energy: [i64; 4],
    /// Components that saturated at ±[`MAX_FORCE`] (pair forces and row
    /// energies).
    pub(crate) clamps: u64,
    /// The lowest sorted slot whose row saturated a component. A minimum,
    /// so it too is independent of how rows were dealt out.
    pub(crate) saturated: Option<u32>,
    /// In-cutoff pairs evaluated.
    pub(crate) pairs: u64,
    /// Candidates rejected by the cutoff test.
    pub(crate) cut: u64,
}

impl Tally {
    /// Add `other` into `self`.
    pub(crate) fn add(&mut self, other: &Tally) {
        for (a, b) in self.energy.iter_mut().zip(other.energy) {
            *a = a.wrapping_add(b);
        }
        self.clamps += other.clamps;
        self.saturated = match (self.saturated, other.saturated) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.pairs += other.pairs;
        self.cut += other.cut;
    }

    /// The energies and virials in kcal/mol.
    pub(crate) fn energy(&self) -> NonbondedEnergy {
        let [lj, coulomb_real, virial, virial_lj] = self.energy.map(from_fixed);
        NonbondedEnergy {
            lj,
            coulomb_real,
            virial,
            virial_lj,
        }
    }
}

/// The one pair-stream sink: integer forces into a full-length image
/// indexed by sorted slot, plus the [`Tally`]. The partner receives `−f`
/// and the row atom `+f` — the same integers, so momentum is exact. Every
/// addition is an integer addition: which evaluator fed which rows, in
/// what order, cannot change a bit.
pub(crate) struct Accumulate<'a> {
    image: &'a mut [[i64; 3]],
    pub(crate) tally: Tally,
}

impl<'a> Accumulate<'a> {
    /// A sink accumulating into `image`.
    pub(crate) fn new(image: &'a mut [[i64; 3]]) -> Self {
        Accumulate {
            image,
            tally: Tally::default(),
        }
    }

    /// The partner side of one pair, at slot `t`.
    #[inline(always)]
    fn pair(&mut self, t: usize, f: [i64; 3]) {
        sub3(&mut self.image[t], f);
    }

    /// Convert a pair force of row `s` whose lane batch failed the range
    /// test, component by component, counting saturations.
    #[cold]
    fn saturate(&mut self, s: usize, f: Vec3) -> [i64; 3] {
        [f.x, f.y, f.z].map(|x| {
            let (v, clamped) = to_fixed_saturating(x);
            if clamped {
                self.clamped(s);
            }
            v
        })
    }

    /// Count one saturated component of row `s`.
    #[cold]
    fn clamped(&mut self, s: usize) {
        self.tally.clamps += 1;
        let s = s as u32;
        self.tally.saturated = Some(self.tally.saturated.map_or(s, |m| m.min(s)));
    }

    /// Row `s` is complete: `fs` is the sum of its pair forces, `e` its f64
    /// energy and virial sums (in [`Tally`] order), converted here once.
    #[inline]
    fn row_done(&mut self, s: usize, fs: [i64; 3], e: [f64; 4]) {
        add3(&mut self.image[s], fs);
        for (k, x) in e.into_iter().enumerate() {
            let (v, clamped) = to_fixed_saturating(x);
            self.tally.energy[k] = self.tally.energy[k].wrapping_add(v);
            if clamped {
                self.clamped(s);
            }
        }
    }
}

/// The one pair evaluator: match, then compute, row by row — the CPU
/// analogue of HTIS match units feeding the PPIPs only the candidates
/// that passed the distance test.
///
/// * **Pass A (match)** walks a segment of the row's candidates once,
///   computes the minimum-image displacement and r², and compacts the
///   in-cutoff ones into `scratch` branch-free (always write, advance the
///   cursor by the comparison result). Pairs in the skin shell cost one
///   distance check and nothing else.
/// * **Pass B (compute)** walks the survivors [`LANES`] at a time, gathers
///   the `PairTable` entry and charge product for them only, evaluates
///   [`pair_interaction_lanes`] (bitwise identical per lane to the scalar
///   kernel; padding lanes get benign inputs and yield zero force) and
///   converts each pair force once to fixed point. One range test per
///   lane batch guards the conversion: Σ|f|² over the batch bounds every
///   component, so a batch that passes takes the branch-free
///   [`to_fixed3`], and only a batch that fails (or holds a NaN) goes
///   through the saturating, counting path.
///
/// Energies and virials are summed in f64 inside a row, in partner order,
/// and converted once per row, so they too depend only on the row. The sink
/// is taken by value and handed back, its accumulators then live in
/// registers whether or not this call is inlined.
#[inline]
pub(crate) fn evaluate_rows<'a, const SEG: usize>(
    stream: &NonbondedStream,
    atoms: SlotData<'_>,
    table: &PairTable,
    rows: impl Iterator<Item = usize>,
    scratch: &mut RowScratch<SEG>,
    mut sink: Accumulate<'a>,
) -> Accumulate<'a> {
    let hb = HalfBox::new(&stream.pbc);
    let cutoff_sq = table.cutoff_sq;
    let mut r_sq = [0.0f64; LANES];
    let mut lj_a = [0.0f64; LANES];
    let mut lj_b = [0.0f64; LANES];
    let mut lj_shift = [0.0f64; LANES];
    let mut qq = [0.0f64; LANES];
    let mut f_lj = [0.0f64; LANES];
    let mut f_coul = [0.0f64; LANES];
    let mut e_lj = [0.0f64; LANES];
    let mut e_coul = [0.0f64; LANES];
    for s in rows {
        let ps = atoms.pos[s];
        let qs = atoms.charge[s];
        let row = table.row(atoms.lj_type[s]);
        let mut fs = [0i64; 3];
        let mut e_row = [0.0f64; 4];
        let r0 = stream.start[s];
        let r1 = stream.start[s + 1];
        let mut seg0 = r0;
        while seg0 < r1 {
            let seg1 = r1.min(seg0 + SEG);
            let mut n = 0usize;
            for &t in &stream.partners[seg0..seg1] {
                let d = hb.min_image(ps - atoms.pos[t as usize]);
                let rr = d.norm_sq();
                // The compress below would silently count a NaN as "cut".
                debug_assert!(
                    !rr.is_nan(),
                    "row {s} read slot {t} outside its planned region"
                );
                scratch.dx[n] = d.x;
                scratch.dy[n] = d.y;
                scratch.dz[n] = d.z;
                scratch.r_sq[n] = rr;
                scratch.slot[n] = t;
                n += (rr < cutoff_sq) as usize;
            }
            sink.tally.cut += (seg1 - seg0 - n) as u64;
            sink.tally.pairs += n as u64;
            let mut c = 0usize;
            while c < n {
                let k = LANES.min(n - c);
                for l in 0..k {
                    let t = scratch.slot[c + l] as usize;
                    let e = row[atoms.lj_type[t] as usize];
                    r_sq[l] = scratch.r_sq[c + l];
                    lj_a[l] = e.a;
                    lj_b[l] = e.b;
                    lj_shift[l] = e.shift;
                    qq[l] = qs * atoms.charge[t];
                }
                for l in k..LANES {
                    r_sq[l] = 1.0;
                    lj_a[l] = 0.0;
                    lj_b[l] = 0.0;
                    lj_shift[l] = 0.0;
                    qq[l] = 0.0;
                }
                pair_interaction_lanes(
                    &r_sq,
                    &lj_a,
                    &lj_b,
                    &lj_shift,
                    &qq,
                    table.coulomb(),
                    &mut f_lj,
                    &mut f_coul,
                    &mut e_lj,
                    &mut e_coul,
                );
                let mut f_sq = 0.0f64;
                for l in 0..LANES {
                    let f_over_r = f_lj[l] + f_coul[l];
                    f_sq += f_over_r * f_over_r * r_sq[l];
                }
                let in_range = f_sq <= MAX_FORCE * MAX_FORCE;
                for l in 0..k {
                    let f_over_r = f_lj[l] + f_coul[l];
                    let f = Vec3::new(scratch.dx[c + l], scratch.dy[c + l], scratch.dz[c + l])
                        * f_over_r;
                    let fi = if in_range {
                        to_fixed3(f)
                    } else {
                        sink.saturate(s, f)
                    };
                    add3(&mut fs, fi);
                    sink.pair(scratch.slot[c + l] as usize, fi);
                    e_row[0] += e_lj[l];
                    e_row[1] += e_coul[l];
                    e_row[2] += f_over_r * r_sq[l];
                    e_row[3] += f_lj[l] * r_sq[l];
                }
                c += k;
            }
            seg0 = seg1;
        }
        sink.row_done(s, fs, e_row);
    }
    sink
}

/// Streaming nonbonded kernel: brings the stream in `ws` up to date for
/// `system`, evaluates all pairs, and adds the forces to `forces` in
/// original atom order.
///
/// `table` must be baked from `system`'s force field at `system.nb.cutoff`
/// (see [`System::pair_table`]). With `parallel` the rows are split over
/// the worker threads; serial or parallel, at any thread count, the
/// integer accumulation gives the same bits. Serial evaluation performs no
/// heap allocation once the stream is built.
pub fn nonbonded_forces_streamed(
    system: &System,
    table: &PairTable,
    ws: &mut NonbondedWorkspace,
    forces: &mut [Vec3],
    parallel: bool,
) -> NonbondedEnergy {
    nonbonded_forces_streamed_profiled(system, table, ws, forces, parallel, &mut Telemetry::off())
}

/// [`nonbonded_forces_streamed`] with step-phase telemetry: stream
/// rebuilds are timed as [`Phase::NeighborRebuild`], counted by trigger
/// reason, and sized at row granularity (rows rebuilt plus cell churn);
/// pair evaluation is timed as [`Phase::ShortRange`] and the
/// pairs-evaluated/pairs-cut and fixed-point clamp counters are recorded.
/// With telemetry off this is exactly the plain kernel (no clock reads, no
/// allocation).
pub fn nonbonded_forces_streamed_profiled(
    system: &System,
    table: &PairTable,
    ws: &mut NonbondedWorkspace,
    forces: &mut [Vec3],
    parallel: bool,
    tel: &mut Telemetry,
) -> NonbondedEnergy {
    ws.stream.ensure_profiled(system, tel);

    let t0 = tel.start();
    let NonbondedWorkspace {
        stream,
        parts,
        image,
        ..
    } = ws;
    let ns = stream.pos.len();
    image.resize_zeroed(ns);

    // One contiguous row range and one full-length image per worker; the
    // images add up to the same bits however many there are.
    let n = if parallel {
        rayon::current_num_threads()
    } else {
        1
    };
    if parts.len() < n {
        parts.resize_with(n, Part::default);
    }
    let parts = &mut parts[..n];
    let evaluate = |(c, part): (usize, &mut Part)| {
        part.image.resize_zeroed(ns);
        let mut scratch: RowScratch<ROW_SEGMENT> = RowScratch::new();
        part.tally = evaluate_rows(
            stream,
            stream.atoms(),
            table,
            c * ns / n..(c + 1) * ns / n,
            &mut scratch,
            Accumulate::new(part.image.fixed_mut()),
        )
        .tally;
    };
    // The serial path stays off the thread runtime, which allocates.
    if n == 1 {
        parts.iter_mut().enumerate().for_each(evaluate);
    } else {
        parts.par_iter_mut().enumerate().for_each(evaluate);
    }
    let mut tally = Tally::default();
    for part in parts.iter() {
        image.merge(&part.image);
        tally.add(&part.tally);
    }
    ws.finish(&tally, forces, tel, t0)
}

#[cfg(test)]
impl NonbondedStream {
    /// How far the fixed-point sink may land from exact summation of the
    /// same pair terms: `(per force component, per energy or virial
    /// term)`. Every pair force is rounded once, by at most half a unit,
    /// and the same integers go to both atoms, so an atom's total is off by
    /// at most half a unit per candidate pair it takes part in — the
    /// longest row of the two-sided list (its own row plus its appearances
    /// as a partner). Each row's energy and virial sums are rounded once.
    pub(crate) fn quantization_bounds(&self) -> (f64, f64) {
        let ns = self.pos.len();
        let mut touches: Vec<usize> = self.start.windows(2).map(|w| w[1] - w[0]).collect();
        for &t in &self.partners {
            touches[t as usize] += 1;
        }
        let longest = touches.into_iter().max().unwrap_or(0);
        let half = 0.5 / crate::fixedpoint::FORCE_SCALE;
        (longest as f64 * half, ns as f64 * half)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::water_box;
    use crate::neighbor::NeighborList;
    use crate::pairkernel::nonbonded_forces;

    fn reference(system: &System) -> (Vec<Vec3>, NonbondedEnergy) {
        let nl = NeighborList::build(
            &system.pbc,
            &system.positions,
            system.nb.cutoff,
            system.nb.skin,
        );
        let mut f = vec![Vec3::ZERO; system.n_atoms()];
        let e = nonbonded_forces(system, &nl, &mut f);
        (f, e)
    }

    /// The f64 reference `(a, ea)` against the streamed result `(b, eb)`:
    /// within the 1e-12 relative budget for the reference's own summation
    /// order, plus the stream's fixed-point quantization bound (per
    /// component, so √3 times it for a force vector).
    fn assert_close(
        ws: &NonbondedWorkspace,
        a: &[Vec3],
        ea: NonbondedEnergy,
        b: &[Vec3],
        eb: NonbondedEnergy,
    ) {
        let tol = 1e-12;
        let (qf, qe) = ws.stream.quantization_bounds();
        let close = |x: f64, y: f64| (x - y).abs() <= tol * x.abs().max(1.0) + qe;
        assert!(close(ea.lj, eb.lj), "{ea:?} vs {eb:?}");
        assert!(close(ea.coulomb_real, eb.coulomb_real), "{ea:?} vs {eb:?}");
        assert!(close(ea.virial, eb.virial), "{ea:?} vs {eb:?}");
        assert!(close(ea.virial_lj, eb.virial_lj), "{ea:?} vs {eb:?}");
        for (x, y) in a.iter().zip(b) {
            assert!(
                (*x - *y).norm() <= tol * (1.0 + x.norm()) + 3f64.sqrt() * qf,
                "{x:?} vs {y:?}"
            );
        }
    }

    /// The interleaved row loop that preceded [`evaluate_rows`] (distance
    /// test, gathers and lane stores per candidate, behind the cutoff
    /// branch), the oracle [`evaluate_rows`] must equal bit for bit. Its
    /// fixed-point conversion is written independently of
    /// `fixedpoint::to_fixed`: `round_ties_even` on the scaled value, once
    /// per pair force component and once per row energy sum.
    fn stream_rows(
        stream: &NonbondedStream,
        table: &PairTable,
        lo: usize,
        hi: usize,
        local: &mut [[i64; 3]],
    ) -> ([i64; 4], u64) {
        let q = |x: f64| (x * crate::fixedpoint::FORCE_SCALE).round_ties_even() as i64;
        let hb = HalfBox::new(&stream.pbc);
        let cutoff_sq = table.cutoff_sq;
        let mut out = [0i64; 4];
        let mut cut = 0u64;
        let mut dx = [0.0f64; LANES];
        let mut dy = [0.0f64; LANES];
        let mut dz = [0.0f64; LANES];
        let mut r_sq = [0.0f64; LANES];
        let mut lj_a = [0.0f64; LANES];
        let mut lj_b = [0.0f64; LANES];
        let mut lj_shift = [0.0f64; LANES];
        let mut qq = [0.0f64; LANES];
        let mut slot = [0usize; LANES];
        let mut f_lj = [0.0f64; LANES];
        let mut f_coul = [0.0f64; LANES];
        let mut e_lj = [0.0f64; LANES];
        let mut e_coul = [0.0f64; LANES];
        for s in lo..hi {
            let ps = stream.pos[s];
            let qs = stream.charge[s];
            let row = table.row(stream.lj_type[s]);
            let mut fs = [0i64; 3];
            let mut e_row = [0.0f64; 4];
            let r1 = stream.start[s + 1];
            let mut base = stream.start[s];
            while base < r1 {
                let mut k = 0;
                while base < r1 && k < LANES {
                    let t = stream.partners[base] as usize;
                    let d = hb.min_image(ps - stream.pos[t]);
                    let rr = d.norm_sq();
                    if rr < cutoff_sq {
                        dx[k] = d.x;
                        dy[k] = d.y;
                        dz[k] = d.z;
                        r_sq[k] = rr;
                        let e = row[stream.lj_type[t] as usize];
                        lj_a[k] = e.a;
                        lj_b[k] = e.b;
                        lj_shift[k] = e.shift;
                        qq[k] = qs * stream.charge[t];
                        slot[k] = t;
                        k += 1;
                    } else {
                        cut += 1;
                    }
                    base += 1;
                }
                if k == 0 {
                    continue;
                }
                for l in k..LANES {
                    r_sq[l] = 1.0;
                    lj_a[l] = 0.0;
                    lj_b[l] = 0.0;
                    lj_shift[l] = 0.0;
                    qq[l] = 0.0;
                }
                pair_interaction_lanes(
                    &r_sq,
                    &lj_a,
                    &lj_b,
                    &lj_shift,
                    &qq,
                    table.coulomb(),
                    &mut f_lj,
                    &mut f_coul,
                    &mut e_lj,
                    &mut e_coul,
                );
                for l in 0..k {
                    let f_over_r = f_lj[l] + f_coul[l];
                    let f = Vec3::new(dx[l], dy[l], dz[l]) * f_over_r;
                    for (c, x) in [f.x, f.y, f.z].into_iter().enumerate() {
                        fs[c] += q(x);
                        local[slot[l]][c] -= q(x);
                    }
                    e_row[0] += e_lj[l];
                    e_row[1] += e_coul[l];
                    e_row[2] += f_over_r * r_sq[l];
                    e_row[3] += f_lj[l] * r_sq[l];
                }
            }
            for c in 0..3 {
                local[s][c] += fs[c];
            }
            for (o, e) in out.iter_mut().zip(e_row) {
                *o += q(e);
            }
        }
        (out, cut)
    }

    fn vec_bits(v: &[Vec3]) -> Vec<[u64; 3]> {
        v.iter()
            .map(|f| [f.x.to_bits(), f.y.to_bits(), f.z.to_bits()])
            .collect()
    }

    fn energy_bits(e: NonbondedEnergy) -> [u64; 4] {
        [
            e.lj.to_bits(),
            e.coulomb_real.to_bits(),
            e.virial.to_bits(),
            e.virial_lj.to_bits(),
        ]
    }

    /// Evaluate `system` with the oracle and with the two-pass evaluator at
    /// segment length `SEG` — the whole row range, and each of seven
    /// uneven row ranges, into full-length images — and require identical
    /// integers in every force component, every energy/virial and the cut
    /// count. Returns (candidates, cut, longest row).
    fn assert_evaluator_matches_oracle<const SEG: usize>(system: &System) -> (u64, u64, usize) {
        let table = system.pair_table();
        let mut ws = NonbondedWorkspace::new();
        ws.stream.ensure(system);
        let stream = &ws.stream;
        let ns = stream.pos.len();
        let mut spans = vec![(0, ns)];
        let cuts = [
            0,
            ns / 11,
            ns / 5,
            ns / 3,
            ns / 2,
            2 * ns / 3,
            9 * ns / 10,
            ns,
        ];
        spans.extend(cuts.windows(2).map(|w| (w[0], w[1])));
        let mut total_cut = 0;
        for (lo, hi) in spans {
            let mut want = vec![[0i64; 3]; ns];
            let (e_want, cut_want) = stream_rows(stream, &table, lo, hi, &mut want);
            let mut got = vec![[0i64; 3]; ns];
            let mut scratch: RowScratch<SEG> = RowScratch::new();
            let tally = evaluate_rows(
                stream,
                stream.atoms(),
                &table,
                lo..hi,
                &mut scratch,
                Accumulate::new(&mut got),
            )
            .tally;
            let candidates = (stream.start[hi] - stream.start[lo]) as u64;
            assert_eq!(tally.pairs + tally.cut, candidates, "rows {lo}..{hi}");
            assert_eq!(got, want, "forces, rows {lo}..{hi}");
            assert_eq!(tally.energy, e_want, "rows {lo}..{hi}");
            assert_eq!(tally.cut, cut_want, "cut count, rows {lo}..{hi}");
            assert_eq!(tally.clamps, 0, "rows {lo}..{hi}");
            if (lo, hi) == (0, ns) {
                total_cut = tally.cut;
            }
        }
        let longest = (0..ns)
            .map(|s| stream.start[s + 1] - stream.start[s])
            .max()
            .unwrap_or(0);
        (stream.partners.len() as u64, total_cut, longest)
    }

    /// Displace every atom by up to ±`amp` Å per axis.
    fn jitter(system: &mut System, amp: f64, seed: u64) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        for p in &mut system.positions {
            *p += Vec3::new(
                (rng.gen::<f64>() - 0.5) * 2.0 * amp,
                (rng.gen::<f64>() - 0.5) * 2.0 * amp,
                (rng.gen::<f64>() - 0.5) * 2.0 * amp,
            );
        }
    }

    /// Number of working-list pairs whose minimum image crosses the
    /// periodic seam (the fold changes the raw displacement).
    fn seam_pairs(system: &System) -> usize {
        let mut ws = NonbondedWorkspace::new();
        ws.stream.ensure(system);
        let st = &ws.stream;
        let hb = HalfBox::new(&st.pbc);
        (0..st.pos.len())
            .flat_map(|s| {
                st.partners[st.start[s]..st.start[s + 1]]
                    .iter()
                    .map(move |&t| (s, t))
            })
            .filter(|&(s, t)| {
                let d = st.pos[s] - st.pos[t as usize];
                hb.min_image(d) != d
            })
            .count()
    }

    #[test]
    fn evaluator_is_bitwise_the_old_row_loop() {
        for seed in [3u64, 4] {
            // Cell path (3×3×3 cells at cutoff + skin = 6 Å), atoms wrapped
            // across the seam by the jitter.
            let mut cells = water_box(6, 6, 6, seed);
            cells.nb.cutoff = 5.0;
            cells.nb.skin = 1.0;
            cells.nb.ewald_alpha = 3.0 / 5.0;
            jitter(&mut cells, 0.15, seed + 100);
            assert!(seam_pairs(&cells) > 0, "no seam-crossing pair");
            let (pairs, cut, longest) = assert_evaluator_matches_oracle::<ROW_SEGMENT>(&cells);
            assert!(cut > 0 && cut < pairs, "both sides of the cutoff test");
            assert!(longest <= ROW_SEGMENT, "single-segment rows");
            // Same system through an 8-candidate segment: rows span many
            // segments and survivors regroup into different lane batches.
            assert_evaluator_matches_oracle::<8>(&cells);
            assert!(longest > 3 * 8, "rows longer than the tiny segment");

            // Small box → all-pairs fallback stream.
            let mut small = water_box(3, 3, 3, seed);
            jitter(&mut small, 0.1, seed + 200);
            assert!(CellGrid::dims_for(&small.pbc, small.nb.cutoff + small.nb.skin).is_none());
            assert_evaluator_matches_oracle::<ROW_SEGMENT>(&small);
            assert_evaluator_matches_oracle::<8>(&small);

            // Bonded protein in water: many LJ types, exclusions baked out
            // of the list (1-2/1-3 inside the chain, whole waters).
            let mut protein = crate::builders::solvated_protein(60, 300, seed);
            jitter(&mut protein, 0.1, seed + 300);
            assert!(protein.topology.exclusions.n_excluded_pairs() > 3 * 300);
            assert_evaluator_matches_oracle::<ROW_SEGMENT>(&protein);
            assert_evaluator_matches_oracle::<8>(&protein);
        }
    }

    #[test]
    fn streamed_matches_reference_water() {
        // Water has full exclusions inside each molecule — the baked list
        // must reproduce them exactly.
        let s = water_box(5, 5, 5, 3);
        let table = s.pair_table();
        let (fr, er) = reference(&s);
        let mut ws = NonbondedWorkspace::new();
        for parallel in [false, true] {
            let mut f = vec![Vec3::ZERO; s.n_atoms()];
            let e = nonbonded_forces_streamed(&s, &table, &mut ws, &mut f, parallel);
            assert_close(&ws, &fr, er, &f, e);
        }
    }

    #[test]
    fn streamed_matches_reference_cell_path() {
        // 37.2 Å box with range 10 → a real 3×3×3 cell grid (the 15.5 Å
        // boxes above take the all-pairs fallback).
        let s = water_box(12, 12, 12, 3);
        let table = s.pair_table();
        let (fr, er) = reference(&s);
        let mut ws = NonbondedWorkspace::new();
        for parallel in [false, true] {
            let mut f = vec![Vec3::ZERO; s.n_atoms()];
            let e = nonbonded_forces_streamed(&s, &table, &mut ws, &mut f, parallel);
            assert_close(&ws, &fr, er, &f, e);
        }
    }

    #[test]
    fn streamed_matches_reference_small_box_fallback() {
        let s = water_box(3, 3, 3, 7); // 9.3 Å box → all-pairs fallback
        let table = s.pair_table();
        let (fr, er) = reference(&s);
        let mut ws = NonbondedWorkspace::new();
        let mut f = vec![Vec3::ZERO; s.n_atoms()];
        let e = nonbonded_forces_streamed(&s, &table, &mut ws, &mut f, false);
        assert_close(&ws, &fr, er, &f, e);
    }

    #[test]
    fn streamed_parallel_is_bitwise_deterministic() {
        let s = water_box(4, 4, 4, 5);
        let table = s.pair_table();
        let run = || {
            let mut ws = NonbondedWorkspace::new();
            let mut f = vec![Vec3::ZERO; s.n_atoms()];
            nonbonded_forces_streamed(&s, &table, &mut ws, &mut f, true);
            f.iter()
                .map(|v| v.x.to_bits() ^ v.y.to_bits() ^ v.z.to_bits())
                .fold(0u64, |a, b| a.rotate_left(1) ^ b)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stream_reuses_list_until_drift_exceeds_half_skin() {
        let mut s = water_box(5, 5, 5, 11);
        let table = s.pair_table();
        let mut ws = NonbondedWorkspace::new();
        let mut f = vec![Vec3::ZERO; s.n_atoms()];
        nonbonded_forces_streamed(&s, &table, &mut ws, &mut f, false);
        let pairs = ws.stream().n_pairs();

        // Small drift: the permutation and list persist, but forces track
        // the new positions and still match the reference.
        for p in &mut s.positions {
            p.x += 0.3; // rigid translation, < skin/2
        }
        let mut f = vec![Vec3::ZERO; s.n_atoms()];
        let e = nonbonded_forces_streamed(&s, &table, &mut ws, &mut f, false);
        assert_eq!(ws.stream().n_pairs(), pairs, "list must not rebuild");
        let (fr, er) = reference(&s);
        assert_close(&ws, &fr, er, &f, e);

        // Past skin/2 the rebuild criterion fires.
        assert_eq!(ws.stream.revision, 1);
        for p in &mut s.positions {
            p.x += 0.4;
        }
        let mut f = vec![Vec3::ZERO; s.n_atoms()];
        let e = nonbonded_forces_streamed(&s, &table, &mut ws, &mut f, false);
        assert_eq!(ws.stream.revision, 2, "list must rebuild");
        let (fr, er) = reference(&s);
        assert_close(&ws, &fr, er, &f, e);
    }

    #[test]
    fn stream_rebuilds_when_drift_exceeds_half_skin_on_cell_path() {
        use crate::telemetry::TelemetryLevel;
        // 37.2 Å box with range 10 → 3 cells of width 12.4 Å per axis. A
        // 0.6 Å rigid drift is past skin/2 = 0.5, so the second evaluation
        // rebuilds the list from a new cell scan. Run serial and parallel
        // and require bitwise-identical telemetry.
        let run = |parallel: bool| {
            let mut s = water_box(12, 12, 12, 23);
            let table = s.pair_table();
            let mut ws = NonbondedWorkspace::new();
            let mut tel = Telemetry::new(TelemetryLevel::Counters);
            let mut f = vec![Vec3::ZERO; s.n_atoms()];
            nonbonded_forces_streamed_profiled(&s, &table, &mut ws, &mut f, parallel, &mut tel);
            for p in &mut s.positions {
                p.x += 0.6;
            }
            let mut f = vec![Vec3::ZERO; s.n_atoms()];
            let e =
                nonbonded_forces_streamed_profiled(&s, &table, &mut ws, &mut f, parallel, &mut tel);
            assert_eq!(ws.stream.revision, 2);
            let (fr, er) = reference(&s);
            assert_close(&ws, &fr, er, &f, e);
            let c = tel.profile().counters;
            assert_eq!(c.rows_rebuilt, 2 * s.n_atoms() as u64, "two builds");
            assert_eq!((c.rebuilds_initial, c.rebuilds_skin), (1, 1));
            (c.rows_rebuilt, c.cell_churn)
        };
        assert_eq!(run(false), run(true), "row counters serial ≡ parallel");
    }

    #[test]
    fn rebuild_at_epoch_reproduces_refreshed_stream_bitwise() {
        let mut s = water_box(12, 12, 12, 29);
        let table = s.pair_table();
        let mut ws = NonbondedWorkspace::new();
        let mut f = vec![Vec3::ZERO; s.n_atoms()];
        nonbonded_forces_streamed(&s, &table, &mut ws, &mut f, false);
        let e0 = ws.stream().ref_positions().to_vec();
        // Past skin/2: the list is rebuilt at a new epoch…
        for p in &mut s.positions {
            p.x += 0.6;
            p.y -= 0.15;
        }
        nonbonded_forces_streamed(&s, &table, &mut ws, &mut f, false);
        let e1 = ws.stream().ref_positions().to_vec();
        assert_ne!(e0, e1, "the drift must have moved the epoch");
        // …and then reused at positions that differ from it.
        for p in &mut s.positions {
            p.z += 0.2;
        }
        let mut f1 = vec![Vec3::ZERO; s.n_atoms()];
        let e1_energy = nonbonded_forces_streamed(&s, &table, &mut ws, &mut f1, false);
        assert_eq!(ws.stream.revision, 2, "0.2 Å is inside skin/2");

        // Resume path: fresh workspace rebuilt at the checkpointed epoch,
        // evaluated at the current positions.
        let mut ws2 = NonbondedWorkspace::new();
        let mut epoch = s.clone();
        epoch.positions = e1;
        ws2.rebuild_at_epoch(&epoch);
        assert_eq!(ws2.stream.order, ws.stream.order);
        assert_eq!(ws2.stream.start, ws.stream.start);
        assert_eq!(ws2.stream.partners, ws.stream.partners);

        let mut f2 = vec![Vec3::ZERO; s.n_atoms()];
        let e2_energy = nonbonded_forces_streamed(&s, &table, &mut ws2, &mut f2, false);
        assert_eq!(ws2.stream.revision, 1, "no rebuild after the resume");
        assert_eq!(energy_bits(e1_energy), energy_bits(e2_energy));
        assert_eq!(vec_bits(&f1), vec_bits(&f2));
    }

    #[test]
    fn box_change_forces_rebuild() {
        let mut s = water_box(5, 5, 5, 13);
        let table = s.pair_table();
        let mut ws = NonbondedWorkspace::new();
        let mut f = vec![Vec3::ZERO; s.n_atoms()];
        nonbonded_forces_streamed(&s, &table, &mut ws, &mut f, false);

        // A barostat-style rescale moves atoms by far less than skin/2 but
        // changes the box; the stream must notice via the box, not drift.
        let mu = 1.0005;
        s.pbc = PbcBox::new(s.pbc.lx * mu, s.pbc.ly * mu, s.pbc.lz * mu);
        for p in &mut s.positions {
            *p = *p * mu;
        }
        let mut f = vec![Vec3::ZERO; s.n_atoms()];
        let e = nonbonded_forces_streamed(&s, &table, &mut ws, &mut f, false);
        let (fr, er) = reference(&s);
        assert_close(&ws, &fr, er, &f, e);
    }

    #[test]
    fn pair_counters_identical_serial_vs_parallel() {
        use crate::telemetry::TelemetryLevel;
        let s = water_box(5, 5, 5, 17);
        let table = s.pair_table();
        let count = |parallel: bool| {
            let mut ws = NonbondedWorkspace::new();
            let mut f = vec![Vec3::ZERO; s.n_atoms()];
            let mut tel = Telemetry::new(TelemetryLevel::Counters);
            nonbonded_forces_streamed_profiled(&s, &table, &mut ws, &mut f, parallel, &mut tel);
            let c = tel.profile().counters;
            (c.pairs_evaluated, c.pairs_cut)
        };
        let (eval_s, cut_s) = count(false);
        let (eval_p, cut_p) = count(true);
        assert_eq!(eval_s, eval_p);
        assert_eq!(cut_s, cut_p);
        assert!(eval_s > 0 && cut_s > 0, "both branches exercised");
        // evaluated + cut must exactly cover the candidate list.
        let mut ws = NonbondedWorkspace::new();
        let mut f = vec![Vec3::ZERO; s.n_atoms()];
        nonbonded_forces_streamed(&s, &table, &mut ws, &mut f, false);
        assert_eq!(eval_s + cut_s, ws.stream().n_pairs() as u64);
    }

    #[test]
    fn rebuild_reasons_are_distinguished() {
        use crate::telemetry::TelemetryLevel;
        let mut s = water_box(5, 5, 5, 19);
        let table = s.pair_table();
        let mut ws = NonbondedWorkspace::new();
        let mut f = vec![Vec3::ZERO; s.n_atoms()];
        let mut tel = Telemetry::new(TelemetryLevel::Counters);
        let mut go = |s: &System, ws: &mut NonbondedWorkspace, tel: &mut Telemetry| {
            let mut forces = std::mem::take(&mut f);
            forces.iter_mut().for_each(|v| *v = Vec3::ZERO);
            nonbonded_forces_streamed_profiled(s, &table, ws, &mut forces, false, tel);
            f = forces;
        };
        // Cold build.
        go(&s, &mut ws, &mut tel);
        assert_eq!(tel.profile().counters.rebuilds_initial, 1);
        // Steady state: no rebuild.
        go(&s, &mut ws, &mut tel);
        assert_eq!(tel.profile().counters.neighbor_rebuilds, 1);
        // Drift past skin/2.
        for p in &mut s.positions {
            p.x += 0.7;
        }
        go(&s, &mut ws, &mut tel);
        assert_eq!(tel.profile().counters.rebuilds_skin, 1);
        // Barostat-style box change (drift far below skin/2).
        let mu = 1.0005;
        s.pbc = PbcBox::new(s.pbc.lx * mu, s.pbc.ly * mu, s.pbc.lz * mu);
        for p in &mut s.positions {
            *p = *p * mu;
        }
        go(&s, &mut ws, &mut tel);
        assert_eq!(tel.profile().counters.rebuilds_box, 1);
        // Explicit invalidation.
        ws.invalidate();
        go(&s, &mut ws, &mut tel);
        let c = tel.profile().counters;
        assert_eq!(c.rebuilds_invalidated, 1);
        assert_eq!(c.neighbor_rebuilds, 4);
        assert_eq!(
            ws.stream().staleness(&s).map(|_| RebuildReason::Initial),
            None,
            "stream current after the last evaluation"
        );
    }

    /// Two waters' oxygens 0.05 Å apart: an LJ pair force far beyond
    /// `MAX_FORCE`. The sink saturates it, counts the clamps in telemetry
    /// and in the workspace's saturation record (kept at every telemetry
    /// level), keeps every force finite, and does the same on both paths.
    #[test]
    fn planted_out_of_range_pair_saturates_and_counts() {
        use crate::fixedpoint::MAX_FORCE;
        use crate::telemetry::TelemetryLevel;
        let mut s = water_box(3, 3, 3, 7);
        let table = s.pair_table();
        let run = |s: &System, parallel: bool| {
            let mut ws = NonbondedWorkspace::new();
            let mut f = vec![Vec3::ZERO; s.n_atoms()];
            let mut tel = Telemetry::new(TelemetryLevel::Counters);
            nonbonded_forces_streamed_profiled(s, &table, &mut ws, &mut f, parallel, &mut tel);
            let clamps = tel.profile().counters.fixedpoint_clamps;
            // The record does not depend on telemetry.
            let mut f_off = vec![Vec3::ZERO; s.n_atoms()];
            let mut ws_off = NonbondedWorkspace::new();
            nonbonded_forces_streamed(s, &table, &mut ws_off, &mut f_off, parallel);
            assert_eq!(ws_off.saturation(), ws.saturation());
            assert_eq!(ws.saturation().map_or(0, |(_, c)| c), clamps);
            (clamps, f, ws.saturation())
        };
        let (clamps, _, saturation) = run(&s, false);
        assert_eq!((clamps, saturation), (0, None), "the lattice is in range");

        // Atom 0 is molecule 0's oxygen; plant the next oxygen on it.
        let j = (1..s.n_atoms())
            .find(|&j| s.topology.lj_types[j] == s.topology.lj_types[0] && j >= 3)
            .expect("a second oxygen");
        assert!(
            table
                .entry(s.topology.lj_types[0], s.topology.lj_types[j])
                .a
                > 0.0
        );
        s.positions[j] = s.positions[0] + Vec3::new(0.05, 0.0, 0.0);
        let (clamps, f, saturation) = run(&s, false);
        assert!(clamps > 0, "a saturated pair must be counted");
        let (atom, _) = saturation.expect("a saturated pair must be recorded");
        assert!(atom == 0 || atom == j, "atom {atom}");
        assert!(f.iter().all(|v| v.is_finite()));
        // The pair's x force saturates at ±MAX_FORCE; everything else
        // acting on atom 0 is many orders of magnitude smaller.
        assert!(
            (f[0].x.abs() - MAX_FORCE).abs() < 1e-3 * MAX_FORCE,
            "{:?}",
            f[0]
        );
        let (clamps_par, f_par, saturation_par) = run(&s, true);
        assert_eq!((clamps_par, saturation_par), (clamps, saturation));
        assert_eq!(vec_bits(&f_par), vec_bits(&f));
    }

    #[test]
    fn half_box_min_image_matches_division_form() {
        let pbc = PbcBox::new(31.04, 24.0, 40.0);
        let hb = HalfBox::new(&pbc);
        let pts = [
            Vec3::new(0.1, 0.2, 0.3),
            Vec3::new(30.9, 23.9, 39.9),
            Vec3::new(15.5, 12.0, 20.0),
            Vec3::new(0.0, 23.999, 0.001),
        ];
        for &a in &pts {
            for &b in &pts {
                let got = hb.min_image(a - b);
                let want = pbc.min_image(a, b);
                assert_eq!(got, want, "a={a:?} b={b:?}");
            }
        }
    }
}
