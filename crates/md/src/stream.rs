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
//!   the force loop never calls `is_excluded`, plus per-chunk scatter plans
//!   mapping each partner to a slot in a chunk-local force buffer;
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
//! with the fixed-chunk deterministic reduction contract from DESIGN.md §9.
//! Every pair — single image or shard — goes through one row evaluator,
//! `evaluate_rows`, which works match-then-compute like the HTIS: pass A
//! distance-tests a row's candidates and compacts the survivors, pass B
//! runs them [`LANES`] at a time through the table-driven
//! [`crate::erfc::erfc_exp_fast8`] spline kernel and hands each pair, in
//! partner order, to a sink (accumulate, or record for the shard replay —
//! DESIGN.md §10, §16). The parallel path writes into
//! chunk-local buffers sized `rows + imports` (not full-length, so force
//! traffic is O(pairs), not O(chunks × atoms)) and is bitwise independent
//! of the rayon thread count; both paths match the reference
//! `pairkernel::nonbonded_forces` to ≤1e-12 (the accumulation order
//! differs, so bitwise equality is not expected). All buffers live in
//! [`NonbondedWorkspace`], so steady-state evaluation performs no heap
//! allocation.

use crate::cells::CellGrid;
use crate::forcefield::PairTable;
use crate::pairkernel::{pair_interaction_lanes, NonbondedEnergy, LANES, NB_CHUNKS};
use crate::pbc::{HalfBox, PbcBox};
use crate::system::System;
use crate::telemetry::{Phase, Telemetry};
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
    /// Chunk-local slot of each partner (parallel to `partners`): row chunk
    /// `[lo, hi)` maps partner `t < hi` to `t − lo` and imported partner
    /// `t ≥ hi` to `(hi − lo) + import index`.
    pub(crate) partners_local: Vec<u32>,
    /// Deduplicated imported partners (sorted indices) per chunk,
    /// concatenated; spans delimited by `import_start`.
    pub(crate) imports: Vec<u32>,
    /// Per-chunk spans into `imports`, length `NB_CHUNKS + 1`.
    pub(crate) import_start: Vec<usize>,
    /// Generation-stamped dedup scratch for plan building.
    stamp: Vec<u64>,
    slot_of: Vec<u32>,
    stamp_gen: u64,
    scratch: Vec<CellScratch>,
    /// Bumped on every rebuild (new permutation, cells and list). The shard
    /// layer watches this to know its ownership/import/record plans are
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
            partners_local: Vec::new(),
            imports: Vec::new(),
            import_start: Vec::new(),
            stamp: Vec::new(),
            slot_of: Vec::new(),
            stamp_gen: 0,
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
    /// `range` in sorted space, and fresh scatter plans. Reuses all
    /// buffers. Returns the cell churn: atoms whose cell assignment changed
    /// since the previous build (0 on a first build or next to a fallback
    /// build).
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
        self.build_plans();
        self.revision += 1;
        cell_churn
    }

    /// Build the chunk-local scatter plans for the parallel path: for each
    /// fixed row chunk `[lo, hi)`, partners inside the chunk map to slot
    /// `t − lo`; partners beyond it are deduplicated (generation-stamped
    /// scratch, no clearing) into an import table and map to
    /// `(hi − lo) + import index`. Serial and deterministic, so the plans —
    /// and hence the parallel reduction — are independent of thread count.
    fn build_plans(&mut self) {
        let ns = self.pos.len();
        self.partners_local.resize(self.partners.len(), 0);
        self.stamp.resize(ns, 0);
        self.slot_of.resize(ns, 0);
        self.imports.clear();
        self.import_start.resize(NB_CHUNKS + 1, 0);
        for c in 0..NB_CHUNKS {
            self.import_start[c] = self.imports.len();
            let lo = c * ns / NB_CHUNKS;
            let hi = (c + 1) * ns / NB_CHUNKS;
            self.stamp_gen += 1;
            let gen = self.stamp_gen;
            let own = (hi - lo) as u32;
            for idx in self.start[lo]..self.start[hi] {
                let t = self.partners[idx] as usize;
                if t < hi {
                    self.partners_local[idx] = t as u32 - lo as u32;
                } else {
                    if self.stamp[t] != gen {
                        self.stamp[t] = gen;
                        self.slot_of[t] = own + (self.imports.len() - self.import_start[c]) as u32;
                        self.imports.push(t as u32);
                    }
                    self.partners_local[idx] = self.slot_of[t];
                }
            }
        }
        self.import_start[NB_CHUNKS] = self.imports.len();
    }
}

/// All mutable state of the streaming kernel: the prepared stream plus the
/// fixed-chunk force accumulators. Owned by the engine's `StepWorkspace`;
/// steady-state evaluation allocates nothing.
#[derive(Clone, Debug)]
pub struct NonbondedWorkspace {
    pub(crate) stream: NonbondedStream,
    pub(crate) chunks: Vec<Vec<Vec3>>,
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
            chunks: (0..NB_CHUNKS).map(|_| Vec::new()).collect(),
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
}

/// Candidates matched per pass-A segment of [`evaluate_rows`]. A DHFR row
/// averages ≈ 190 candidates, so nearly every row is one segment; longer
/// rows are processed segment by segment in order. 512 × 36 B = 18 KB of
/// stack, L1-resident.
pub(crate) const ROW_SEGMENT: usize = 512;

/// Pass-A output of [`evaluate_rows`] for one row segment: displacement,
/// r² and working-list position of every candidate inside the cutoff,
/// compacted in partner order. Lives on the evaluating thread's stack.
pub(crate) struct RowScratch<const SEG: usize> {
    dx: [f64; SEG],
    dy: [f64; SEG],
    dz: [f64; SEG],
    r_sq: [f64; SEG],
    idx: [u32; SEG],
}

impl<const SEG: usize> RowScratch<SEG> {
    pub(crate) fn new() -> Self {
        RowScratch {
            dx: [0.0; SEG],
            dy: [0.0; SEG],
            dz: [0.0; SEG],
            r_sq: [0.0; SEG],
            idx: [0; SEG],
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

/// One in-cutoff pair as [`evaluate_rows`] emits it: the pair's position in
/// the working partner list plus its force and energy terms, all pure
/// functions of the two atoms (identical bits whoever evaluates them).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PairRecord {
    /// Index into `stream.partners` (and the parallel slot arrays).
    idx: u32,
    /// Force on the row atom from this pair (the partner gets `−f`).
    f: Vec3,
    e_lj: f64,
    e_coul: f64,
    virial: f64,
    virial_lj: f64,
}

/// Where [`evaluate_rows`] sends its results. Two implementations:
/// [`Accumulate`] (the single image, and the shard replay) and the shard
/// layer's record sink.
pub(crate) trait PairSink {
    /// The next in-cutoff pair of the current row, in partner order. `at`
    /// is the row's CSR start plus the pair's rank among the row's
    /// in-cutoff pairs — where a compacted per-row record goes.
    fn pair(&mut self, at: usize, rec: PairRecord);
    /// Row `s` is complete: `fs` is the sum of its pair forces in partner
    /// order, `pairs` its in-cutoff pair count.
    fn row_done(&mut self, s: usize, fs: Vec3, pairs: usize);
}

/// The accumulating sink: partner slots (via `slots`, parallel to the
/// working partner array — the full sorted index for the serial
/// full-length buffer, the chunk-local plan for the parallel path) receive
/// `−f`, rows land at `s − lo`, energies add up in pair order. Every f64
/// accumulator therefore sees one fixed addition sequence, whether the
/// pairs come straight from [`evaluate_rows`] or from recorded shards.
pub(crate) struct Accumulate<'a> {
    slots: &'a [u32],
    lo: usize,
    local: &'a mut [Vec3],
    /// Energies and virials accumulated so far.
    pub(crate) out: NonbondedEnergy,
}

impl<'a> Accumulate<'a> {
    /// A sink for rows starting at `lo`, accumulating into `local`.
    pub(crate) fn new(slots: &'a [u32], lo: usize, local: &'a mut [Vec3]) -> Self {
        Accumulate {
            slots,
            lo,
            local,
            out: NonbondedEnergy::default(),
        }
    }
}

impl PairSink for Accumulate<'_> {
    #[inline]
    fn pair(&mut self, _at: usize, rec: PairRecord) {
        self.local[self.slots[rec.idx as usize] as usize] -= rec.f;
        self.out.lj += rec.e_lj;
        self.out.coulomb_real += rec.e_coul;
        self.out.virial += rec.virial;
        self.out.virial_lj += rec.virial_lj;
    }

    #[inline]
    fn row_done(&mut self, s: usize, fs: Vec3, _pairs: usize) {
        self.local[s - self.lo] += fs;
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
///   kernel; padding lanes get benign inputs and are never read) and feeds
///   `sink` in partner order.
///
/// Lanes are independent and every sink call happens in partner order, so
/// the result does not depend on `SEG` or on how survivors group into lane
/// batches. The sink is taken by value and handed back — its accumulators
/// then live in registers whether or not this call is inlined — together
/// with (pairs evaluated, candidates rejected by the cutoff): exact
/// integers, so sums over chunks or shards are order-independent.
#[inline]
pub(crate) fn evaluate_rows<const SEG: usize, S: PairSink>(
    stream: &NonbondedStream,
    atoms: SlotData<'_>,
    table: &PairTable,
    alpha: f64,
    rows: impl Iterator<Item = usize>,
    scratch: &mut RowScratch<SEG>,
    mut sink: S,
) -> (S, u64, u64) {
    let hb = HalfBox::new(&stream.pbc);
    let cutoff_sq = table.cutoff_sq;
    let mut evaluated = 0u64;
    let mut cut = 0u64;
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
        let mut fs = Vec3::ZERO;
        let r0 = stream.start[s];
        let r1 = stream.start[s + 1];
        let mut w = r0;
        let mut seg0 = r0;
        while seg0 < r1 {
            let seg1 = r1.min(seg0 + SEG);
            let mut n = 0usize;
            for (base, &t) in (seg0..seg1).zip(&stream.partners[seg0..seg1]) {
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
                scratch.idx[n] = base as u32;
                n += (rr < cutoff_sq) as usize;
            }
            cut += (seg1 - seg0 - n) as u64;
            let mut c = 0usize;
            while c < n {
                let k = LANES.min(n - c);
                for l in 0..k {
                    let t = stream.partners[scratch.idx[c + l] as usize] as usize;
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
                    alpha,
                    &mut f_lj,
                    &mut f_coul,
                    &mut e_lj,
                    &mut e_coul,
                );
                for l in 0..k {
                    let f_over_r = f_lj[l] + f_coul[l];
                    let f = Vec3::new(scratch.dx[c + l], scratch.dy[c + l], scratch.dz[c + l])
                        * f_over_r;
                    fs += f;
                    sink.pair(
                        w,
                        PairRecord {
                            idx: scratch.idx[c + l],
                            f,
                            e_lj: e_lj[l],
                            e_coul: e_coul[l],
                            virial: f_over_r * r_sq[l],
                            virial_lj: f_lj[l] * r_sq[l],
                        },
                    );
                    w += 1;
                }
                c += k;
            }
            seg0 = seg1;
        }
        sink.row_done(s, fs, w - r0);
        evaluated += (w - r0) as u64;
    }
    (sink, evaluated, cut)
}

/// Streaming nonbonded kernel: brings the stream in `ws` up to date for
/// `system`, evaluates all pairs, and scatters the forces back to original
/// atom order, accumulating into `forces`.
///
/// `table` must be baked from `system`'s force field at `system.nb.cutoff`
/// (see [`System::pair_table`]). With `parallel` the rows are split into
/// [`NB_CHUNKS`] fixed chunks reduced in chunk order — bitwise independent
/// of the rayon thread count. Serial evaluation performs no heap
/// allocation once the stream is built.
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
/// pair evaluation is timed as [`Phase::ShortRange`] and
/// the pairs-evaluated/pairs-cut counters are recorded. With telemetry off
/// this is exactly the plain kernel (no clock reads, no allocation).
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
    let stream = &ws.stream;
    let ns = stream.pos.len();
    let candidates = stream.partners.len() as u64;
    let alpha = system.nb.ewald_alpha;

    let (total, cut) = if parallel {
        let bufs = &mut ws.chunks[..NB_CHUNKS];
        // Per-chunk energy slots live on the stack: the steady-state
        // parallel path must not touch the allocator (zero-alloc rule).
        let mut energies = [(NonbondedEnergy::default(), 0u64); NB_CHUNKS];
        bufs.par_iter_mut()
            .zip(&mut energies[..])
            .enumerate()
            .for_each(|(c, (local, slot))| {
                let lo = c * ns / NB_CHUNKS;
                let hi = (c + 1) * ns / NB_CHUNKS;
                // Chunk-local buffer: own rows plus this chunk's imports —
                // O(pairs) force traffic in total, not O(chunks × atoms).
                let len = (hi - lo) + (stream.import_start[c + 1] - stream.import_start[c]);
                local.resize(len, Vec3::ZERO);
                local.iter_mut().for_each(|f| *f = Vec3::ZERO);
                let mut scratch: RowScratch<ROW_SEGMENT> = RowScratch::new();
                let (sink, _, cut) = evaluate_rows(
                    stream,
                    stream.atoms(),
                    table,
                    alpha,
                    lo..hi,
                    &mut scratch,
                    Accumulate::new(&stream.partners_local, lo, local),
                );
                *slot = (sink.out, cut);
            });
        // Deterministic reduction: chunk order is fixed, own rows then
        // imports; each atom receives its additions in ascending chunk
        // order exactly as a full-length merge would. The cut counter is an
        // integer sum, so it is bitwise thread-count independent too.
        let mut total = NonbondedEnergy::default();
        let mut cut = 0u64;
        for (c, (local, (e, cc))) in bufs.iter().zip(&energies).enumerate() {
            let lo = c * ns / NB_CHUNKS;
            let hi = (c + 1) * ns / NB_CHUNKS;
            let own = hi - lo;
            for (i, l) in local[..own].iter().enumerate() {
                forces[stream.order[lo + i] as usize] += *l;
            }
            let ib = stream.import_start[c];
            for (k, l) in local[own..].iter().enumerate() {
                let t = stream.imports[ib + k] as usize;
                forces[stream.order[t] as usize] += *l;
            }
            total.lj += e.lj;
            total.coulomb_real += e.coulomb_real;
            total.virial += e.virial;
            total.virial_lj += e.virial_lj;
            cut += cc;
        }
        (total, cut)
    } else {
        let local = &mut ws.chunks[0];
        local.resize(ns, Vec3::ZERO);
        local.iter_mut().for_each(|f| *f = Vec3::ZERO);
        let mut scratch: RowScratch<ROW_SEGMENT> = RowScratch::new();
        let (sink, _, cut) = evaluate_rows(
            stream,
            stream.atoms(),
            table,
            alpha,
            0..ns,
            &mut scratch,
            Accumulate::new(&stream.partners, 0, local),
        );
        let out = sink.out;
        for (s, l) in local.iter().enumerate() {
            forces[stream.order[s] as usize] += *l;
        }
        (out, cut)
    };
    tel.count_pairs(candidates - cut, cut);
    tel.stop(Phase::ShortRange, t0);
    total
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

    fn assert_close(a: &[Vec3], ea: NonbondedEnergy, b: &[Vec3], eb: NonbondedEnergy) {
        let tol = 1e-12;
        assert!((ea.lj - eb.lj).abs() <= tol * ea.lj.abs().max(1.0));
        assert!((ea.coulomb_real - eb.coulomb_real).abs() <= tol * ea.coulomb_real.abs().max(1.0));
        assert!((ea.virial - eb.virial).abs() <= tol * ea.virial.abs().max(1.0));
        assert!((ea.virial_lj - eb.virial_lj).abs() <= tol * ea.virial_lj.abs().max(1.0));
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).norm() <= tol * (1.0 + x.norm()), "{x:?} vs {y:?}");
        }
    }

    /// The parent commit's interleaved row loop (distance test, gathers and
    /// lane stores per candidate, behind the cutoff branch), kept verbatim
    /// as the oracle [`evaluate_rows`] must equal bit for bit.
    fn stream_rows(
        stream: &NonbondedStream,
        table: &PairTable,
        alpha: f64,
        lo: usize,
        hi: usize,
        slots: &[u32],
        local: &mut [Vec3],
    ) -> (NonbondedEnergy, u64) {
        let hb = HalfBox::new(&stream.pbc);
        let cutoff_sq = table.cutoff_sq;
        let mut out = NonbondedEnergy::default();
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
            let mut fs = Vec3::ZERO;
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
                        slot[k] = slots[base] as usize;
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
                    alpha,
                    &mut f_lj,
                    &mut f_coul,
                    &mut e_lj,
                    &mut e_coul,
                );
                for l in 0..k {
                    let f_over_r = f_lj[l] + f_coul[l];
                    let f = Vec3::new(dx[l], dy[l], dz[l]) * f_over_r;
                    fs += f;
                    local[slot[l]] -= f;
                    out.lj += e_lj[l];
                    out.coulomb_real += e_coul[l];
                    out.virial += f_over_r * r_sq[l];
                    out.virial_lj += f_lj[l] * r_sq[l];
                }
            }
            local[s - lo] += fs;
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
    /// segment length `SEG` — the whole row range into a full-length
    /// buffer (serial slots) and each of the `NB_CHUNKS` row chunks into
    /// its chunk-local buffer (plan slots) — and require identical bits in
    /// every force component, every energy/virial and the cut count.
    /// Returns (candidates, cut, longest row).
    fn assert_evaluator_matches_oracle<const SEG: usize>(system: &System) -> (u64, u64, usize) {
        let table = system.pair_table();
        let alpha = system.nb.ewald_alpha;
        let mut ws = NonbondedWorkspace::new();
        ws.stream.ensure(system);
        let stream = &ws.stream;
        let ns = stream.pos.len();
        let mut spans = vec![(0, ns, &stream.partners[..], ns)];
        for c in 0..NB_CHUNKS {
            let lo = c * ns / NB_CHUNKS;
            let hi = (c + 1) * ns / NB_CHUNKS;
            let len = (hi - lo) + (stream.import_start[c + 1] - stream.import_start[c]);
            spans.push((lo, hi, &stream.partners_local[..], len));
        }
        let mut total_cut = 0;
        for (lo, hi, slots, len) in spans {
            let mut want = vec![Vec3::ZERO; len];
            let (e_want, cut_want) = stream_rows(stream, &table, alpha, lo, hi, slots, &mut want);
            let mut got = vec![Vec3::ZERO; len];
            let mut scratch: RowScratch<SEG> = RowScratch::new();
            let (sink, evaluated, cut_got) = evaluate_rows(
                stream,
                stream.atoms(),
                &table,
                alpha,
                lo..hi,
                &mut scratch,
                Accumulate::new(slots, lo, &mut got),
            );
            let e_got = sink.out;
            let candidates = (stream.start[hi] - stream.start[lo]) as u64;
            assert_eq!(evaluated + cut_got, candidates, "rows {lo}..{hi}");
            assert_eq!(vec_bits(&got), vec_bits(&want), "forces, rows {lo}..{hi}");
            assert_eq!(energy_bits(e_got), energy_bits(e_want), "rows {lo}..{hi}");
            assert_eq!(cut_got, cut_want, "cut count, rows {lo}..{hi}");
            if len == ns {
                total_cut = cut_got;
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
            assert_close(&fr, er, &f, e);
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
            assert_close(&fr, er, &f, e);
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
        assert_close(&fr, er, &f, e);
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
        assert_close(&fr, er, &f, e);

        // Past skin/2 the rebuild criterion fires.
        assert_eq!(ws.stream.revision, 1);
        for p in &mut s.positions {
            p.x += 0.4;
        }
        let mut f = vec![Vec3::ZERO; s.n_atoms()];
        let e = nonbonded_forces_streamed(&s, &table, &mut ws, &mut f, false);
        assert_eq!(ws.stream.revision, 2, "list must rebuild");
        let (fr, er) = reference(&s);
        assert_close(&fr, er, &f, e);
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
            assert_close(&fr, er, &f, e);
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
        assert_close(&fr, er, &f, e);
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
