//! Gaussian-split Ewald (GSE): grid-based reciprocal-space electrostatics.
//!
//! This is the k-space method family Anton uses (Shan et al., J. Chem. Phys.
//! 2005): each charge is spread onto a regular grid with a Gaussian, the
//! grid is convolved with a modified influence function via 3D FFT, and
//! forces are interpolated back with the same Gaussian. The splitting
//! algebra: the Ewald reciprocal sum needs a factor `exp(−k²/4α²)`; the two
//! Gaussian convolutions (spread + interpolate) supply `exp(−σ²k²)` of it
//! and the influence function supplies the remaining
//! `exp(−k²(1/4α² − σ²))`, so the grid answer equals classic Ewald up to
//! spreading truncation error.
//!
//! The hot spread/interpolation kernels exploit **Gaussian separability**,
//! the same factorization Anton 2's dedicated GSE hardware (and the FPGA
//! PME pipelines it inspired) builds in: `exp(−|r|²/2σ²)` is the product of
//! three per-axis 1D Gaussians, so [`StencilTables`] precomputes, per
//! charged atom, three 1D weight arrays plus wrapped grid-index tables —
//! `O(3R)` transcendental calls — and the `O(R³)` stencil core degenerates
//! to a pure multiply-accumulate over the tables, batched into
//! [`crate::pairkernel::LANES`]-wide lanes. Spreading parallelism comes
//! from a deterministic counting-sort binning of stencil columns by
//! destination x-plane: each plane task replays exactly the serial
//! accumulation order, so the parallel grid is **bitwise identical** to the
//! serial one at any thread count. The pre-rework fused kernels (one
//! `exp` + `rem_euclid` per grid point, spherical support) are kept as
//! test-only `*_reference` oracles for the accuracy gates.
//!
//! Spreading and interpolation work on one dense real grid whose z-rows
//! are padded by the stencil width (see [`GseWorkspace`]): a stencil row is
//! written as at most two contiguous runs and read back as one, and the
//! convolution goes through a single complex FFT buffer.
//!
//! The serial engine evaluates the convolution with [`anton2_fft::Fft3`];
//! the machine co-simulator runs the identical arithmetic with the
//! pencil-decomposed FFT and charges spread by each node.

use crate::pairkernel::LANES;
use crate::pbc::PbcBox;
use crate::telemetry::{Phase, Telemetry};
use crate::units::COULOMB;
use crate::vec3::Vec3;
use anton2_fft::{Fft3, Fft3Scratch, Grid3, C64};
use rayon::prelude::*;
use rayon::{ParallelSlice, ParallelSliceMut};
use std::f64::consts::PI;

/// Fixed chunk count for the parallel force interpolation. Independent of
/// the thread count so results never depend on `RAYON_NUM_THREADS`, and the
/// ordered chunk reduction makes the parallel path bitwise identical to the
/// serial one.
const INTERP_CHUNKS: usize = 64;

/// Geometry and accuracy parameters for a GSE evaluation.
#[derive(Clone, Copy, Debug)]
pub struct GseParams {
    /// Grid dimensions (powers of two).
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Spreading Gaussian width σ, Å. Must satisfy `σ² < 1/(4α²)`.
    pub sigma: f64,
    /// Gaussian truncation radius, Å (≈ 5σ for ~1e-5 relative accuracy).
    pub support: f64,
}

impl GseParams {
    /// Production-style parameters: `σ = 1/(√8·α)` splits the Ewald Gaussian
    /// evenly between the convolutions and the influence function; the grid
    /// is the smallest power of two keeping the spacing at or below 1.25σ
    /// (Gaussian sampling error at h = 1.25σ is `exp(−2π²σ²/h²)` ≈ 3e-6,
    /// well below the spreading-truncation error).
    pub fn for_box(alpha: f64, pbc: &PbcBox) -> Self {
        let sigma = 1.0 / (8.0f64.sqrt() * alpha);
        let dim = |l: f64| {
            ((l / (1.25 * sigma)).ceil() as usize)
                .next_power_of_two()
                .max(8)
        };
        GseParams {
            nx: dim(pbc.lx),
            ny: dim(pbc.ly),
            nz: dim(pbc.lz),
            sigma,
            support: 5.0 * sigma,
        }
    }

    /// Grid spacing along each axis for a given box.
    pub fn spacing(&self, pbc: &PbcBox) -> Vec3 {
        Vec3::new(
            pbc.lx / self.nx as f64,
            pbc.ly / self.ny as f64,
            pbc.lz / self.nz as f64,
        )
    }

    /// Total grid points.
    pub fn n_points(&self) -> usize {
        self.nx * self.ny * self.nz
    }
}

/// A planned GSE solver for one box/parameter combination.
pub struct Gse {
    pub params: GseParams,
    pub alpha: f64,
    pbc: PbcBox,
    plan: Fft3,
    /// Influence function per grid frequency (real, symmetric).
    ghat: Vec<f64>,
    /// Spreading/interpolation constants — computed once here (the
    /// normalization carries a `powf(-1.5)`) instead of per evaluation.
    ctx: SpreadCtx,
}

impl Gse {
    /// Plan a solver. `alpha` must match the real-space erfc kernel.
    pub fn new(alpha: f64, pbc: PbcBox, params: GseParams) -> Self {
        assert!(
            params.sigma * params.sigma < 1.0 / (4.0 * alpha * alpha),
            "spreading Gaussian too wide for α = {alpha}: σ = {}",
            params.sigma
        );
        let plan = Fft3::new(params.nx, params.ny, params.nz);
        let decay = 1.0 / (4.0 * alpha * alpha) - params.sigma * params.sigma;
        let freq = |m: usize, n: usize, l: f64| -> f64 {
            let m_signed = if m <= n / 2 {
                m as i64
            } else {
                m as i64 - n as i64
            };
            2.0 * PI * m_signed as f64 / l
        };
        let mut ghat = vec![0.0; params.n_points()];
        for ix in 0..params.nx {
            let kx = freq(ix, params.nx, pbc.lx);
            for iy in 0..params.ny {
                let ky = freq(iy, params.ny, pbc.ly);
                for iz in 0..params.nz {
                    let kz = freq(iz, params.nz, pbc.lz);
                    let k_sq = kx * kx + ky * ky + kz * kz;
                    let idx = (ix * params.ny + iy) * params.nz + iz;
                    // k = 0: tinfoil boundary conditions; net charge is
                    // handled by the analytic background term.
                    ghat[idx] = if k_sq == 0.0 {
                        0.0
                    } else {
                        4.0 * PI / k_sq * (-k_sq * decay).exp()
                    };
                }
            }
        }
        let ctx = SpreadCtx::for_params(&params, &pbc);
        Gse {
            params,
            alpha,
            pbc,
            plan,
            ghat,
            ctx,
        }
    }

    /// Influence-function value at grid frequency index `(ix, iy, iz)`
    /// (exposed so the distributed co-simulator can apply the identical
    /// convolution on pencil-decomposed data).
    pub fn influence_at(&self, ix: usize, iy: usize, iz: usize) -> f64 {
        self.ghat[(ix * self.params.ny + iy) * self.params.nz + iz]
    }

    /// The box this solver was planned for.
    pub fn pbc(&self) -> &PbcBox {
        &self.pbc
    }

    /// Spread charges onto a fresh density grid (charge/Å³).
    pub fn spread(&self, positions: &[Vec3], charges: &[f64]) -> Grid3 {
        let mut rho = Grid3::zeros(self.params.nx, self.params.ny, self.params.nz);
        self.spread_into(positions, charges, &mut rho);
        rho
    }

    /// Spread charges into an existing grid (accumulating — the grid is not
    /// cleared). Exposed separately so the machine co-simulator can spread
    /// each node's atoms independently. Convenience wrapper building its
    /// own [`StencilTables`] and real grid, seeded from `rho` so every cell
    /// accumulates onto its old value exactly as an in-place spread would;
    /// the engine's allocation-free hot path goes through
    /// [`Gse::energy_forces_with`].
    pub fn spread_into(&self, positions: &[Vec3], charges: &[f64], rho: &mut Grid3) {
        let mut tables = StencilTables::new();
        self.fill_tables(positions, charges, &mut tables);
        let mut real = self.real_grid_from(rho);
        self.spread_planes_serial(&tables, &mut real);
        self.store_real(&real, rho);
    }

    /// Spread charges into the grid with the x-planes fanned out over
    /// threads. Stencil columns are binned by destination plane with a
    /// stable counting sort, so each plane task visits exactly its own
    /// contributions in serial `(atom, dx)` order: the result is bitwise
    /// identical to [`Gse::spread_into`] for any thread count.
    pub fn spread_into_parallel(&self, positions: &[Vec3], charges: &[f64], rho: &mut Grid3) {
        let mut tables = StencilTables::new();
        self.fill_tables(positions, charges, &mut tables);
        self.bin_planes(&mut tables);
        let mut real = self.real_grid_from(rho);
        self.spread_planes_parallel(&tables, &mut real);
        self.store_real(&real, rho);
    }

    /// A padded real grid (see [`GseWorkspace`]) holding `rho`'s real parts.
    fn real_grid_from(&self, rho: &Grid3) -> Vec<f64> {
        let p = &self.params;
        assert_eq!(
            (rho.nx, rho.ny, rho.nz),
            (p.nx, p.ny, p.nz),
            "density grid sized for another solver"
        );
        let (nz, zrow) = (p.nz, self.ctx.zrow);
        let mut real = vec![0.0; p.nx * p.ny * zrow];
        for (row, src) in real.chunks_exact_mut(zrow).zip(rho.data.chunks_exact(nz)) {
            for (r, v) in row.iter_mut().zip(src) {
                *r = v.re;
            }
        }
        real
    }

    /// Write a padded real grid's cells back into `rho`'s real parts.
    fn store_real(&self, real: &[f64], rho: &mut Grid3) {
        let (nz, zrow) = (self.params.nz, self.ctx.zrow);
        for (row, dst) in real.chunks_exact(zrow).zip(rho.data.chunks_exact_mut(nz)) {
            for (v, &r) in dst.iter_mut().zip(row) {
                v.re = r;
            }
        }
    }

    /// Fill the separable stencil tables for one configuration: the charged
    /// atom list (in index order) and, per charged atom, per-axis wrapped
    /// grid indices, grid-to-atom offsets, and 1D Gaussian weights — the
    /// `O(3R)` transcendental stage. The Gaussian normalization is folded
    /// into the x-axis weights so the stencil core is a bare product.
    fn fill_tables(&self, positions: &[Vec3], charges: &[f64], t: &mut StencilTables) {
        let p = &self.params;
        let c = &self.ctx;
        let [wxl, wyl, wzl] = c.widths;
        t.atom.resize(charges.len(), 0);
        t.q.resize(charges.len(), 0.0);
        let mut n = 0usize;
        for (a, (&q, _)) in charges.iter().zip(positions).enumerate() {
            if q == 0.0 {
                continue;
            }
            t.atom[n] = a as u32;
            t.q[n] = q;
            n += 1;
        }
        t.n = n;
        t.wx.resize(n * wxl, 0.0);
        t.rx.resize(n * wxl, 0.0);
        t.gx.resize(n * wxl, 0);
        t.wy.resize(n * wyl, 0.0);
        t.ry.resize(n * wyl, 0.0);
        t.yoff.resize(n * wyl, 0);
        t.wz.resize(n * wzl, 0.0);
        t.rz.resize(n * wzl, 0.0);
        t.z0.resize(n, 0);
        for s in 0..n {
            let w = self.pbc.wrap(positions[t.atom[s] as usize]);
            let cx = (w.x / c.h.x).round() as i64;
            let cy = (w.y / c.h.y).round() as i64;
            let cz = (w.z / c.h.z).round() as i64;
            for (k, dx) in (-c.reach[0]..=c.reach[0]).enumerate() {
                let r = (cx + dx) as f64 * c.h.x - w.x;
                t.gx[s * wxl + k] = (cx + dx).rem_euclid(p.nx as i64) as u32;
                t.rx[s * wxl + k] = r;
                t.wx[s * wxl + k] = c.norm * (-r * r * c.inv_2s2).exp();
            }
            for (k, dy) in (-c.reach[1]..=c.reach[1]).enumerate() {
                let r = (cy + dy) as f64 * c.h.y - w.y;
                t.yoff[s * wyl + k] = (cy + dy).rem_euclid(p.ny as i64) as u32 * c.zrow as u32;
                t.ry[s * wyl + k] = r;
                t.wy[s * wyl + k] = (-r * r * c.inv_2s2).exp();
            }
            t.z0[s] = (cz - c.reach[2]).rem_euclid(p.nz as i64) as u32;
            for (k, dz) in (-c.reach[2]..=c.reach[2]).enumerate() {
                let r = (cz + dz) as f64 * c.h.z - w.z;
                t.rz[s * wzl + k] = r;
                t.wz[s * wzl + k] = (-r * r * c.inv_2s2).exp();
            }
        }
    }

    /// Bin stencil columns (one per `(charged atom, dx)` pair) by their
    /// destination x-plane with a stable counting sort: each plane's item
    /// list comes out sorted by `(atom slot, dx)`, exactly the order the
    /// serial spread visits that plane, so replaying a plane's items
    /// reproduces the serial accumulation bitwise. Handles sub-support
    /// boxes (grid narrower than the stencil) naturally — an atom then
    /// contributes several `dx` columns to the same plane, kept in
    /// ascending `dx` order.
    fn bin_planes(&self, t: &mut StencilTables) {
        let nx = self.params.nx;
        let wxl = self.ctx.widths[0];
        let items = t.n * wxl;
        t.plane_start.resize(nx + 1, 0);
        t.plane_start.iter_mut().for_each(|v| *v = 0);
        t.cursor.resize(nx, 0);
        t.item_slot.resize(items, 0);
        t.item_dx.resize(items, 0);
        for i in 0..items {
            t.plane_start[t.gx[i] as usize + 1] += 1;
        }
        for px in 0..nx {
            t.plane_start[px + 1] += t.plane_start[px];
        }
        t.cursor.copy_from_slice(&t.plane_start[..nx]);
        for s in 0..t.n {
            for k in 0..wxl {
                let px = t.gx[s * wxl + k] as usize;
                let at = t.cursor[px] as usize;
                t.item_slot[at] = s as u32;
                t.item_dx[at] = k as u32;
                t.cursor[px] += 1;
            }
        }
    }

    /// Serial separable spread: every stencil column in `(atom, dx)` order.
    /// Shares [`Gse::spread_plane_item`] with the plane-parallel path so
    /// both produce identical floating-point sums per grid cell.
    fn spread_planes_serial(&self, t: &StencilTables, real: &mut [f64]) {
        let wxl = self.ctx.widths[0];
        let plane_len = self.plane_len();
        for s in 0..t.n {
            for k in 0..wxl {
                let px = t.gx[s * wxl + k] as usize;
                let plane = &mut real[px * plane_len..(px + 1) * plane_len];
                self.spread_plane_item(t, s, k, plane);
            }
        }
    }

    /// Plane-parallel separable spread over the binned tables: each x-plane
    /// task walks only its own `(atom, dx)` items — `O(items)` total
    /// traversal instead of the old `O(planes × atoms)` membership scan —
    /// in the serial accumulation order, so the grid is bitwise identical
    /// to [`Gse::spread_planes_serial`] at any thread count.
    fn spread_planes_parallel(&self, t: &StencilTables, real: &mut [f64]) {
        real.par_chunks_mut(self.plane_len())
            .enumerate()
            .for_each(|(px, plane)| {
                let lo = t.plane_start[px] as usize;
                let hi = t.plane_start[px + 1] as usize;
                for i in lo..hi {
                    self.spread_plane_item(
                        t,
                        t.item_slot[i] as usize,
                        t.item_dx[i] as usize,
                        plane,
                    );
                }
            });
    }

    /// Real-grid points per x-plane: `ny` padded z-rows.
    fn plane_len(&self) -> usize {
        self.params.ny * self.ctx.zrow
    }

    /// Accumulate one stencil column — one `(charged atom, dx)` pair — into
    /// its destination x-plane: the `O(R²)` separable multiply-accumulate
    /// core, one z-row per `dy`.
    #[inline]
    fn spread_plane_item(&self, t: &StencilTables, s: usize, dxs: usize, plane: &mut [f64]) {
        let [wxl, wyl, wzl] = self.ctx.widths;
        let nz = self.params.nz;
        let qx = t.q[s] * t.wx[s * wxl + dxs];
        let yoff = &t.yoff[s * wyl..(s + 1) * wyl];
        let wy = &t.wy[s * wyl..(s + 1) * wyl];
        let wz = &t.wz[s * wzl..(s + 1) * wzl];
        let z0 = t.z0[s] as usize;
        for dy in 0..wyl {
            let row = &mut plane[yoff[dy] as usize..yoff[dy] as usize + nz];
            spread_row(row, z0, wz, qx * wy[dy]);
        }
    }

    /// Convolve the density in `real` with the influence function: load
    /// it into the complex FFT buffer `grid`, transform, multiply by the
    /// influence function, and transform back, leaving the smeared
    /// potential φ (in units of C·charge/Å) in `grid`. The elementwise
    /// influence multiply and both FFT passes are bitwise independent of
    /// `parallel`.
    fn convolve(&self, real: &[f64], grid: &mut Grid3, fft: &mut Fft3Scratch, parallel: bool) {
        let (nz, zrow) = (self.params.nz, self.ctx.zrow);
        for (dst, row) in grid.data.chunks_exact_mut(nz).zip(real.chunks_exact(zrow)) {
            for (v, &r) in dst.iter_mut().zip(row) {
                *v = C64::real(r);
            }
        }
        self.plan.forward_with(grid, fft, parallel);
        if parallel {
            grid.data
                .par_chunks_mut(4096)
                .zip(self.ghat.par_chunks(4096))
                .for_each(|(vs, gs)| {
                    for (v, &g) in vs.iter_mut().zip(gs) {
                        *v = v.scale(g);
                    }
                });
        } else {
            for (v, &g) in grid.data.iter_mut().zip(&self.ghat) {
                *v = v.scale(g);
            }
        }
        self.plan.inverse_with(grid, fft, parallel);
    }

    /// Overwrite the density in `real` with φ's real part from `grid`, fill
    /// every z-row's pad with the row's wrapped head (`row[nz + j] =
    /// row[(nz + j) mod nz]`), and return the grid energy
    /// `E = (C/2)·h³·Σ ρ·φ`. The dot product runs serially over the grid
    /// in index order from `-0.0`, the start value of `f64`'s `Sum`, so it
    /// is bitwise the old `.sum()` over the grid and a constant of the grid
    /// shape on every path.
    fn grid_energy(&self, grid: &Grid3, real: &mut [f64]) -> f64 {
        let (nz, zrow) = (self.params.nz, self.ctx.zrow);
        let mut dot = -0.0;
        for (row, phi) in real.chunks_exact_mut(zrow).zip(grid.data.chunks_exact(nz)) {
            for (r, p) in row.iter_mut().zip(phi) {
                dot += *r * p.re;
                *r = p.re;
            }
            for j in nz..zrow {
                row[j] = row[j - nz];
            }
        }
        0.5 * COULOMB * self.ctx.cell_vol * dot
    }

    /// Reciprocal-space energy and forces via the grid. Equivalent to
    /// [`crate::ewald::EwaldKSpace::energy_forces`] up to spreading
    /// accuracy. Allocates a throwaway workspace, so the result is bitwise
    /// identical to [`Gse::energy_forces_with`] on the serial path.
    pub fn energy_forces(&self, positions: &[Vec3], charges: &[f64], forces: &mut [Vec3]) -> f64 {
        let mut ws = GseWorkspace::for_gse(self);
        self.energy_forces_with(positions, charges, forces, &mut ws, false)
    }

    /// Allocation-free [`Gse::energy_forces`] against a reusable workspace:
    /// after the first call nothing in the k-space pipeline allocates. With
    /// `parallel` the spread, both FFTs, the influence multiply, and the
    /// force interpolation fan out over threads; every stage reduces in a
    /// fixed order, so the result is bitwise identical to the serial path
    /// for any thread count.
    pub fn energy_forces_with(
        &self,
        positions: &[Vec3],
        charges: &[f64],
        forces: &mut [Vec3],
        ws: &mut GseWorkspace,
        parallel: bool,
    ) -> f64 {
        self.energy_forces_profiled(
            positions,
            charges,
            forces,
            ws,
            parallel,
            &mut Telemetry::off(),
        )
    }

    /// [`Gse::energy_forces_with`] with step-phase telemetry: charge
    /// spreading (including the stencil-table fill) is timed as
    /// [`Phase::GseSpread`], the convolution (both FFT passes, the
    /// influence multiply, and the grid-energy pass that loads φ back into
    /// the real grid) as [`Phase::Fft`], and the force interpolation as
    /// [`Phase::Interpolate`]; the FFT line counter advances by the exact
    /// number of 1D line transforms the two 3D passes execute, and the GSE
    /// work counters by the exact stencil points accumulated/read and
    /// atom-plane visits binned. Telemetry never changes the arithmetic —
    /// the result is bitwise identical to the unprofiled call.
    pub fn energy_forces_profiled(
        &self,
        positions: &[Vec3],
        charges: &[f64],
        forces: &mut [Vec3],
        ws: &mut GseWorkspace,
        parallel: bool,
        tel: &mut Telemetry,
    ) -> f64 {
        let t0 = tel.start();
        ws.real.fill(0.0);
        self.fill_tables(positions, charges, &mut ws.tables);
        if parallel {
            self.bin_planes(&mut ws.tables);
            self.spread_planes_parallel(&ws.tables, &mut ws.real);
        } else {
            self.spread_planes_serial(&ws.tables, &mut ws.real);
        }
        self.count_spread(ws, tel);
        tel.stop(Phase::GseSpread, t0);
        self.solve_and_interpolate(forces, ws, parallel, tel)
    }

    /// [`Gse::energy_forces_profiled`] for a decomposed engine: the charge
    /// spread is split into contiguous x-plane ranges, one per shard (the
    /// GSE plane ranges of DESIGN.md §16), each walked through the binned
    /// plane CSR and timed/counted on that shard's telemetry. Planes are
    /// disjoint and visited in ascending order with each plane's items in
    /// the serial accumulation order, so the density grid — and therefore
    /// the energy and forces — is bitwise identical to the single-image
    /// path at any shard count. The convolution (FFT), grid energy, and
    /// force interpolation remain driver-global: they are part of the
    /// consistency barrier, not the decomposition.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn energy_forces_sharded(
        &self,
        positions: &[Vec3],
        charges: &[f64],
        forces: &mut [Vec3],
        ws: &mut GseWorkspace,
        parallel: bool,
        tel: &mut Telemetry,
        shards: &mut crate::shard::ShardSet,
    ) -> f64 {
        let t0 = tel.start();
        ws.real.fill(0.0);
        self.fill_tables(positions, charges, &mut ws.tables);
        self.bin_planes(&mut ws.tables);
        let nx = self.params.nx;
        let plane_len = self.plane_len();
        let n_shards = shards.len();
        let w12 = (self.ctx.widths[1] * self.ctx.widths[2]) as u64;
        for (k, shard) in shards.shards.iter_mut().enumerate() {
            let ts = shard.tel.start();
            let plane_lo = k * nx / n_shards;
            let plane_hi = (k + 1) * nx / n_shards;
            let tables = &ws.tables;
            for px in plane_lo..plane_hi {
                let lo = tables.plane_start[px] as usize;
                let hi = tables.plane_start[px + 1] as usize;
                let plane = &mut ws.real[px * plane_len..(px + 1) * plane_len];
                for i in lo..hi {
                    self.spread_plane_item(
                        tables,
                        tables.item_slot[i] as usize,
                        tables.item_dx[i] as usize,
                        plane,
                    );
                }
            }
            let items = (tables.plane_start[plane_hi] - tables.plane_start[plane_lo]) as u64;
            shard.tel.count_gse_spread(items * w12, items);
            shard.tel.stop(Phase::GseSpread, ts);
        }
        self.count_spread(ws, tel);
        tel.stop(Phase::GseSpread, t0);
        self.solve_and_interpolate(forces, ws, parallel, tel)
    }

    /// Count one spread on the engine-wide telemetry: the stencil points
    /// accumulated, and one bin visit per `(charged atom, dx)` stencil
    /// column. Both are functions of the charged-atom count and the stencil
    /// shape only, so they are equal on the serial, plane-parallel and
    /// sharded paths.
    fn count_spread(&self, ws: &GseWorkspace, tel: &mut Telemetry) {
        let nq = ws.tables.n as u64;
        tel.count_gse_spread(
            nq * self.ctx.stencil_points(),
            nq * self.ctx.widths[0] as u64,
        );
    }

    /// The back half of an evaluation, global even on a shard grid and
    /// shared by every spread path: the convolution and the grid energy
    /// (timed as [`Phase::Fft`]), then the force interpolation from the
    /// potential now in the real grid ([`Phase::Interpolate`]).
    fn solve_and_interpolate(
        &self,
        forces: &mut [Vec3],
        ws: &mut GseWorkspace,
        parallel: bool,
        tel: &mut Telemetry,
    ) -> f64 {
        let t0 = tel.start();
        self.convolve(&ws.real, &mut ws.grid, &mut ws.fft, parallel);
        let energy = self.grid_energy(&ws.grid, &mut ws.real);
        // Each 3D pass runs one 1D transform per grid line along each axis.
        let p = &self.params;
        let lines_per_pass = (p.ny * p.nz + p.nx * p.nz + p.nx * p.ny) as u64;
        tel.count_fft_lines(2 * lines_per_pass);
        tel.stop(Phase::Fft, t0);

        let t0 = tel.start();
        let n_bufs = if parallel { ws.added.len() } else { 1 };
        self.interpolate_tables_chunked(
            &ws.real,
            &ws.tables,
            forces,
            &mut ws.added[..n_bufs],
            parallel,
        );
        tel.count_gse_interp(ws.tables.n as u64 * self.ctx.stencil_points());
        tel.stop(Phase::Interpolate, t0);
        energy
    }

    /// One charged slot's interpolated k-space force from the separable
    /// tables (including the `q·C·h³` prefactor, excluding the momentum
    /// correction), read from the potential in the padded real grid. Each
    /// stencil z-row is one contiguous run of the padded row, so the inner
    /// loop gathers two lane-batched sums — the plain weight sum for the
    /// x/y components and the `rz`-moment sum for the z component — at one
    /// sequential read and two multiply-adds per lane and point.
    #[inline]
    fn interp_force_slot(&self, t: &StencilTables, phi: &[f64], s: usize) -> Vec3 {
        let c = &self.ctx;
        let [wxl, wyl, wzl] = c.widths;
        let plane_len = self.plane_len();
        let z0 = t.z0[s] as usize;
        let wz = &t.wz[s * wzl..(s + 1) * wzl];
        let rz = &t.rz[s * wzl..(s + 1) * wzl];
        let mut f = Vec3::ZERO;
        for dx in 0..wxl {
            let wxv = t.wx[s * wxl + dx];
            let rxv = t.rx[s * wxl + dx];
            let px = t.gx[s * wxl + dx] as usize;
            let plane = &phi[px * plane_len..(px + 1) * plane_len];
            for dy in 0..wyl {
                let wxy = wxv * t.wy[s * wyl + dy];
                let at = t.yoff[s * wyl + dy] as usize + z0;
                let (s0, s1) = interp_row_lanes(&plane[at..at + wzl], wz, rz);
                // F_j = −q h³ Σ φ(g) · w(d) · d / σ², d = r_g − r_j.
                f.x += rxv * (wxy * s0);
                f.y += t.ry[s * wyl + dy] * (wxy * s0);
                f.z += wxy * s1;
            }
        }
        f * (-t.q[s] * COULOMB * c.cell_vol * c.inv_s2)
    }

    /// Interpolation driver: charged slots split into `buffers.len()` fixed
    /// chunks (embarrassingly parallel), then the net-force accounting and
    /// the momentum correction run serially over the chunks in order. Chunk
    /// boundaries depend only on `buffers.len()`, and the ordered reduction
    /// visits slots in atom-index order, so the parallel result is bitwise
    /// identical to the serial one.
    ///
    /// Grid discretization leaves a small spurious net force; as in
    /// production PME codes, the mean net force is subtracted evenly over
    /// the charged atoms so the k-space term conserves momentum exactly.
    fn interpolate_tables_chunked(
        &self,
        phi: &[f64],
        t: &StencilTables,
        forces: &mut [Vec3],
        buffers: &mut [Vec<(usize, Vec3)>],
        parallel: bool,
    ) {
        let n = t.n;
        let chunk = n.div_ceil(buffers.len()).max(1);
        let fill = |chunk_idx: usize, buf: &mut Vec<(usize, Vec3)>| {
            buf.clear();
            let start = chunk_idx * chunk;
            for s in start..(start + chunk).min(n) {
                // anton2-lint: allow(zero-alloc) -- push onto a cleared,
                // capacity-retaining workspace buffer; steady-state freedom
                // is proved end-to-end by tests/alloc_steady_state.rs.
                buf.push((t.atom[s] as usize, self.interp_force_slot(t, phi, s)));
            }
        };
        if parallel {
            buffers
                .par_iter_mut()
                .enumerate()
                .for_each(|(i, buf)| fill(i, buf));
        } else {
            for (i, buf) in buffers.iter_mut().enumerate() {
                fill(i, buf);
            }
        }
        // Momentum-conserving correction (see doc comment): accumulate the
        // net force in atom order, then subtract the mean evenly.
        let mut net = Vec3::ZERO;
        let mut charged = 0usize;
        for buf in buffers.iter() {
            for &(_, f) in buf {
                net += f;
                charged += 1;
            }
        }
        let correction = if charged > 0 {
            net / charged as f64
        } else {
            Vec3::ZERO
        };
        for buf in buffers.iter() {
            for &(a, f) in buf {
                forces[a] += f - correction;
            }
        }
    }
}

/// Pre-rework fused kernels, kept as test oracles: one fused Gaussian `exp`
/// and one `rem_euclid` per grid point, spherical support truncation.
/// `tests::separable_matches_fused_reference` scores the separable kernels
/// against them.
#[cfg(test)]
impl Gse {
    /// Fused-kernel reference spread (the pre-separable implementation):
    /// `O(R³)` transcendental calls per atom, spherical support. Kept as
    /// the accuracy baseline.
    fn spread_into_reference(&self, positions: &[Vec3], charges: &[f64], rho: &mut Grid3) {
        let p = &self.params;
        let c = &self.ctx;
        for (&pos, &q) in positions.iter().zip(charges) {
            if q == 0.0 {
                continue;
            }
            let w = self.pbc.wrap(pos);
            let cx = (w.x / c.h.x).round() as i64;
            for dx in -c.reach[0]..=c.reach[0] {
                let gx = (cx + dx).rem_euclid(p.nx as i64) as usize;
                let rx = (cx + dx) as f64 * c.h.x - w.x;
                let plane = &mut rho.data[gx * p.ny * p.nz..(gx + 1) * p.ny * p.nz];
                self.spread_column_reference(plane, q, w, rx);
            }
        }
    }

    /// Inner fused spreading loops over one x-plane (reference kernel).
    #[inline]
    fn spread_column_reference(&self, plane: &mut [C64], q: f64, w: Vec3, rx: f64) {
        let p = &self.params;
        let c = &self.ctx;
        let cy = (w.y / c.h.y).round() as i64;
        let cz = (w.z / c.h.z).round() as i64;
        for dy in -c.reach[1]..=c.reach[1] {
            let gy = (cy + dy).rem_euclid(p.ny as i64) as usize;
            let ry = (cy + dy) as f64 * c.h.y - w.y;
            let rxy_sq = rx * rx + ry * ry;
            if rxy_sq > c.sup_sq {
                continue;
            }
            for dz in -c.reach[2]..=c.reach[2] {
                let gz = (cz + dz).rem_euclid(p.nz as i64) as usize;
                let rz = (cz + dz) as f64 * c.h.z - w.z;
                let d_sq = rxy_sq + rz * rz;
                if d_sq > c.sup_sq {
                    continue;
                }
                plane[gy * p.nz + gz] += C64::real(q * c.norm * (-d_sq * c.inv_2s2).exp());
            }
        }
    }

    /// One atom's interpolated k-space force via the fused reference kernel
    /// (including the `q·C·h³` prefactor, excluding the momentum
    /// correction).
    #[inline]
    fn interp_force_one_reference(&self, phi: &Grid3, pos: Vec3, q: f64) -> Vec3 {
        let p = &self.params;
        let c = &self.ctx;
        let w = self.pbc.wrap(pos);
        let cx = (w.x / c.h.x).round() as i64;
        let cy = (w.y / c.h.y).round() as i64;
        let cz = (w.z / c.h.z).round() as i64;
        let mut f = Vec3::ZERO;
        for dx in -c.reach[0]..=c.reach[0] {
            let gx = (cx + dx).rem_euclid(p.nx as i64) as usize;
            let rx = (cx + dx) as f64 * c.h.x - w.x;
            for dy in -c.reach[1]..=c.reach[1] {
                let gy = (cy + dy).rem_euclid(p.ny as i64) as usize;
                let ry = (cy + dy) as f64 * c.h.y - w.y;
                let rxy_sq = rx * rx + ry * ry;
                if rxy_sq > c.sup_sq {
                    continue;
                }
                for dz in -c.reach[2]..=c.reach[2] {
                    let gz = (cz + dz).rem_euclid(p.nz as i64) as usize;
                    let rz = (cz + dz) as f64 * c.h.z - w.z;
                    let d_sq = rxy_sq + rz * rz;
                    if d_sq > c.sup_sq {
                        continue;
                    }
                    let wgt = c.norm * (-d_sq * c.inv_2s2).exp() * phi.get(gx, gy, gz).re;
                    f -= Vec3::new(rx, ry, rz) * (wgt * c.inv_s2);
                }
            }
        }
        f * (q * COULOMB * c.cell_vol)
    }

    /// Fused-kernel reference interpolation with the same momentum
    /// correction as the separable path.
    fn interpolate_forces_reference(
        &self,
        phi: &Grid3,
        positions: &[Vec3],
        charges: &[f64],
        forces: &mut [Vec3],
    ) {
        let mut held = Vec::new();
        for (a, (&pos, &q)) in positions.iter().zip(charges).enumerate() {
            if q == 0.0 {
                continue;
            }
            held.push((a, self.interp_force_one_reference(phi, pos, q)));
        }
        let mut net = Vec3::ZERO;
        for &(_, f) in &held {
            net += f;
        }
        let correction = if held.is_empty() {
            Vec3::ZERO
        } else {
            net / held.len() as f64
        };
        for &(a, f) in &held {
            forces[a] += f - correction;
        }
    }

    /// Full fused-kernel reference pipeline: reference spread, the shared
    /// convolution, reference interpolation. The "before" kernel the
    /// accuracy gate compares the separable path against.
    fn energy_forces_reference(
        &self,
        positions: &[Vec3],
        charges: &[f64],
        forces: &mut [Vec3],
    ) -> f64 {
        let mut rho = Grid3::zeros(self.params.nx, self.params.ny, self.params.nz);
        self.spread_into_reference(positions, charges, &mut rho);
        let mut phi = rho.clone();
        self.plan.forward(&mut phi);
        for (v, &g) in phi.data.iter_mut().zip(&self.ghat) {
            *v = v.scale(g);
        }
        self.plan.inverse(&mut phi);
        let dot: f64 = rho
            .data
            .iter()
            .zip(&phi.data)
            .map(|(a, b)| a.re * b.re)
            .sum();
        let energy = 0.5 * COULOMB * self.ctx.cell_vol * dot;
        self.interpolate_forces_reference(&phi, positions, charges, forces);
        energy
    }
}

/// Accumulate one z-row of a stencil column: `row[(z0 + k) mod nz] +=
/// scale · wz[k]`. When the stencil fits the row (`wz.len() ≤ nz`) every
/// cell is hit at most once, so the row is written as two contiguous runs,
/// split where it wraps at `nz`. A sub-support row (`wz.len() > nz`) hits
/// cells several times and keeps the ascending-`k` wrapped loop. Either way
/// each cell receives its contributions in the serial `(slot, dx, dy, k)`
/// order, with the same products.
#[inline]
fn spread_row(row: &mut [f64], z0: usize, wz: &[f64], scale: f64) {
    let nz = row.len();
    if wz.len() <= nz {
        let first = (nz - z0).min(wz.len());
        let (head, tail) = wz.split_at(first);
        for (r, &w) in row[z0..z0 + first].iter_mut().zip(head) {
            *r += scale * w;
        }
        for (r, &w) in row.iter_mut().zip(tail) {
            *r += scale * w;
        }
    } else {
        let mut z = z0;
        for &w in wz {
            row[z] += scale * w;
            z += 1;
            if z == nz {
                z = 0;
            }
        }
    }
}

/// Gather one z-row of an interpolation stencil from a contiguous run of a
/// padded potential row: returns `(Σ wz·φ, Σ rz·wz·φ)` accumulated in
/// [`LANES`] independent lanes that are reduced in fixed lane order, then a
/// scalar tail. The expression tree depends only on the row length, so
/// serial and parallel callers get identical bits.
#[inline]
fn interp_row_lanes(row: &[f64], wz: &[f64], rz: &[f64]) -> (f64, f64) {
    let n = wz.len();
    let mut s0l = [0.0f64; LANES];
    let mut s1l = [0.0f64; LANES];
    let mut k = 0;
    while k + LANES <= n {
        for l in 0..LANES {
            let w = wz[k + l] * row[k + l];
            s0l[l] += w;
            s1l[l] += rz[k + l] * w;
        }
        k += LANES;
    }
    let mut s0 = 0.0;
    let mut s1 = 0.0;
    for l in 0..LANES {
        s0 += s0l[l];
        s1 += s1l[l];
    }
    while k < n {
        let w = wz[k] * row[k];
        s0 += w;
        s1 += rz[k] * w;
        k += 1;
    }
    (s0, s1)
}

/// Constants shared by the spreading and interpolation kernels.
struct SpreadCtx {
    h: Vec3,
    cell_vol: f64,
    norm: f64,
    inv_s2: f64,
    inv_2s2: f64,
    /// Squared support radius: the fused oracles' spherical cutoff.
    #[cfg(test)]
    sup_sq: f64,
    reach: [i64; 3],
    /// Per-axis stencil widths, `2·reach + 1`.
    widths: [usize; 3],
    /// Padded z-row length of the real grid, `nz + widths[2] − 1`: a
    /// stencil row starting at any `z0 < nz` lies inside one padded row.
    zrow: usize,
}

impl SpreadCtx {
    fn for_params(p: &GseParams, pbc: &PbcBox) -> Self {
        let h = p.spacing(pbc);
        let reach = [
            (p.support / h.x).ceil() as i64,
            (p.support / h.y).ceil() as i64,
            (p.support / h.z).ceil() as i64,
        ];
        let widths = [
            (2 * reach[0] + 1) as usize,
            (2 * reach[1] + 1) as usize,
            (2 * reach[2] + 1) as usize,
        ];
        SpreadCtx {
            h,
            cell_vol: h.x * h.y * h.z,
            norm: (2.0 * PI * p.sigma * p.sigma).powf(-1.5),
            inv_s2: 1.0 / (p.sigma * p.sigma),
            inv_2s2: 1.0 / (2.0 * p.sigma * p.sigma),
            #[cfg(test)]
            sup_sq: p.support * p.support,
            widths,
            zrow: p.nz + widths[2] - 1,
            reach,
        }
    }

    /// Grid points in one atom's stencil.
    fn stencil_points(&self) -> u64 {
        (self.widths[0] * self.widths[1] * self.widths[2]) as u64
    }
}

/// Separable stencil tables for one configuration: the charged-atom list
/// and, per charged atom, per-axis 1D Gaussian weights, grid-to-atom
/// offsets, and wrapped grid positions (`O(3R)` transcendental work per
/// atom), plus the counting-sort CSR that bins stencil columns by
/// destination x-plane for the deterministic parallel scatter. All buffers
/// are retained and cursor-overwritten, so refills are allocation-free in
/// steady state.
pub struct StencilTables {
    /// Charged atoms (table slots).
    n: usize,
    /// Original atom index per slot, ascending.
    atom: Vec<u32>,
    /// Charge per slot.
    q: Vec<f64>,
    /// 1D x-axis Gaussian weights (normalization folded in), `n × widths[0]`.
    wx: Vec<f64>,
    /// Grid-point-to-atom x offsets, `n × widths[0]`.
    rx: Vec<f64>,
    /// Wrapped destination x-plane per stencil column, `n × widths[0]`.
    gx: Vec<u32>,
    /// 1D y-axis Gaussian weights, `n × widths[1]`.
    wy: Vec<f64>,
    /// Grid-point-to-atom y offsets, `n × widths[1]`.
    ry: Vec<f64>,
    /// Wrapped y-row offsets (`gy · zrow`) into a real-grid plane,
    /// `n × widths[1]`.
    yoff: Vec<u32>,
    /// 1D z-axis Gaussian weights, `n × widths[2]`.
    wz: Vec<f64>,
    /// Grid-point-to-atom z offsets, `n × widths[2]`.
    rz: Vec<f64>,
    /// Wrapped z index of each slot's first stencil point, `n`; point `k`
    /// of a stencil row sits at `(z0 + k) mod nz`.
    z0: Vec<u32>,
    /// CSR offsets per x-plane into the item arrays, `nx + 1`.
    plane_start: Vec<u32>,
    /// Slot of each binned stencil column, plane-major, `(slot, dx)`-sorted
    /// within a plane.
    item_slot: Vec<u32>,
    /// `dx` slot of each binned stencil column.
    item_dx: Vec<u32>,
    /// Counting-sort write cursors, `nx`.
    cursor: Vec<u32>,
}

impl StencilTables {
    /// Empty tables; sized on first fill.
    pub fn new() -> Self {
        StencilTables {
            n: 0,
            atom: Vec::new(),
            q: Vec::new(),
            wx: Vec::new(),
            rx: Vec::new(),
            gx: Vec::new(),
            wy: Vec::new(),
            ry: Vec::new(),
            yoff: Vec::new(),
            wz: Vec::new(),
            rz: Vec::new(),
            z0: Vec::new(),
            plane_start: Vec::new(),
            item_slot: Vec::new(),
            item_dx: Vec::new(),
            cursor: Vec::new(),
        }
    }

    /// Charged atoms in the last fill.
    pub fn charged(&self) -> usize {
        self.n
    }
}

impl Default for StencilTables {
    fn default() -> Self {
        StencilTables::new()
    }
}

/// Reusable per-step buffers for [`Gse::energy_forces_with`]: the real
/// grid, the complex FFT buffer, the separable stencil tables (filled once
/// per evaluation, shared by spreading and interpolation), and the
/// per-chunk interpolation accumulators. After warm-up, holding one of
/// these makes the whole k-space pipeline allocation-free.
///
/// The real grid stores `nx × ny` z-rows of `nz + wz − 1` points (`wz` the
/// z-stencil width). The spread accumulates ρ into the first `nz` points
/// of each row; after the inverse FFT the same buffer is overwritten with
/// φ's real part and each row's tail is filled with its wrapped head, so
/// every interpolation stencil row is one contiguous run of `wz` points.
/// Beside the `nx·ny·nz` complex FFT buffer that is ≈ 25 B per grid point
/// for the production stencils.
pub struct GseWorkspace {
    real: Vec<f64>,
    grid: Grid3,
    fft: Fft3Scratch,
    added: Vec<Vec<(usize, Vec3)>>,
    tables: StencilTables,
}

impl GseWorkspace {
    /// Workspace sized for one solver's grid.
    pub fn for_gse(gse: &Gse) -> Self {
        let p = &gse.params;
        GseWorkspace {
            real: vec![0.0; p.nx * p.ny * gse.ctx.zrow],
            grid: Grid3::zeros(p.nx, p.ny, p.nz),
            fft: Fft3Scratch::for_grid(p.nx, p.ny, p.nz),
            added: (0..INTERP_CHUNKS).map(|_| Vec::new()).collect(),
            tables: StencilTables::new(),
        }
    }

    /// The `nx × ny × nz` complex FFT buffer. After an evaluation it holds
    /// the inverse transform of the convolution: the potential φ (in units
    /// of C·charge/Å) in the real parts, rounding residue in the imaginary
    /// parts. The density ρ itself is not kept.
    pub fn rho(&self) -> &Grid3 {
        &self.grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::charge_cloud;
    use crate::ewald::EwaldKSpace;
    use crate::vec3::v3;

    fn test_charges() -> (PbcBox, Vec<Vec3>, Vec<f64>) {
        let pbc = PbcBox::cubic(16.0);
        let positions = vec![
            v3(2.0, 3.0, 4.0),
            v3(9.5, 12.0, 1.0),
            v3(14.0, 6.0, 8.5),
            v3(5.0, 15.0, 13.0),
            v3(7.7, 7.7, 7.7),
            v3(12.0, 2.0, 15.0),
        ];
        let charges = vec![0.8, -0.8, 0.5, -0.5, 0.4, -0.4];
        (pbc, positions, charges)
    }

    #[test]
    fn spread_conserves_charge() {
        let (pbc, positions, charges) = test_charges();
        let gse = Gse::new(0.5, pbc, GseParams::for_box(0.5, &pbc));
        let rho = gse.spread(&positions, &charges);
        let h = gse.params.spacing(&pbc);
        let total: f64 = rho.data.iter().map(|z| z.re).sum::<f64>() * h.x * h.y * h.z;
        let expect: f64 = charges.iter().sum();
        assert!(
            (total - expect).abs() < 1e-4,
            "spread total {total} vs {expect}"
        );
    }

    #[test]
    fn energy_matches_classic_ewald() {
        let (pbc, positions, charges) = test_charges();
        let alpha = 0.5;
        let gse = Gse::new(alpha, pbc, GseParams::for_box(alpha, &pbc));
        let mut fg = vec![Vec3::ZERO; positions.len()];
        let e_gse = gse.energy_forces(&positions, &charges, &mut fg);
        let ks = EwaldKSpace::for_box(alpha, &pbc, 1e-12);
        let mut fe = vec![Vec3::ZERO; positions.len()];
        let e_ewald = ks.energy_forces(&pbc, &positions, &charges, &mut fe);
        assert!(
            (e_gse - e_ewald).abs() < 2e-3 * e_ewald.abs().max(1.0),
            "GSE {e_gse} vs Ewald {e_ewald}"
        );
    }

    #[test]
    fn forces_match_classic_ewald() {
        let (pbc, positions, charges) = test_charges();
        let alpha = 0.5;
        let gse = Gse::new(alpha, pbc, GseParams::for_box(alpha, &pbc));
        let mut fg = vec![Vec3::ZERO; positions.len()];
        gse.energy_forces(&positions, &charges, &mut fg);
        let ks = EwaldKSpace::for_box(alpha, &pbc, 1e-12);
        let mut fe = vec![Vec3::ZERO; positions.len()];
        ks.energy_forces(&pbc, &positions, &charges, &mut fe);
        for (i, (a, b)) in fg.iter().zip(&fe).enumerate() {
            assert!(
                (*a - *b).norm() < 5e-3 * (1.0 + b.norm()),
                "atom {i}: GSE {a:?} vs Ewald {b:?}"
            );
        }
    }

    /// The separable product kernel is a different floating-point
    /// expression with a cube (not sphere) support, but both evaluate the
    /// same Gaussian to spreading accuracy: energies and forces must agree
    /// with the fused reference far inside the oracle tolerances.
    #[test]
    fn separable_matches_fused_reference() {
        let (pbc, positions, charges) = test_charges();
        let gse = Gse::new(0.5, pbc, GseParams::for_box(0.5, &pbc));
        let mut f_sep = vec![Vec3::ZERO; positions.len()];
        let e_sep = gse.energy_forces(&positions, &charges, &mut f_sep);
        let mut f_ref = vec![Vec3::ZERO; positions.len()];
        let e_ref = gse.energy_forces_reference(&positions, &charges, &mut f_ref);
        assert!(
            (e_sep - e_ref).abs() < 1e-3 * e_ref.abs().max(1.0),
            "separable {e_sep} vs fused {e_ref}"
        );
        // The fused kernel truncates the stencil at the sphere |d| ≤ 5σ;
        // the separable kernel keeps the whole cube, so forces differ by
        // the corner-region tail (~2e-4 relative here) — well inside the
        // 5e-3 classic-Ewald oracle band both must independently satisfy.
        for (i, (a, b)) in f_sep.iter().zip(&f_ref).enumerate() {
            assert!(
                (*a - *b).norm() < 2e-3 * (1.0 + b.norm()),
                "atom {i}: separable {a:?} vs fused {b:?}"
            );
        }
        // Keeping the corners must not cost accuracy: scored against the
        // classic-Ewald oracle, the separable kernels are no worse than the
        // fused ones (20 % slack for the differing truncation geometry).
        let ks = EwaldKSpace::for_box(0.5, &pbc, 1e-12);
        let mut f_oracle = vec![Vec3::ZERO; positions.len()];
        let e_oracle = ks.energy_forces(&pbc, &positions, &charges, &mut f_oracle);
        let f_err = |f: &[Vec3]| {
            f.iter()
                .zip(&f_oracle)
                .map(|(a, b)| (*a - *b).norm() / (1.0 + b.norm()))
                .fold(0.0f64, f64::max)
        };
        let e_err = |e: f64| (e - e_oracle).abs() / e_oracle.abs().max(1.0);
        assert!(e_err(e_sep) <= 1.2 * e_err(e_ref) + 1e-6);
        assert!(f_err(&f_sep) <= 1.2 * f_err(&f_ref) + 1e-6);
    }

    #[test]
    fn forces_match_own_gradient() {
        let (pbc, positions, charges) = test_charges();
        let alpha = 0.5;
        let gse = Gse::new(alpha, pbc, GseParams::for_box(alpha, &pbc));
        let mut forces = vec![Vec3::ZERO; positions.len()];
        gse.energy_forces(&positions, &charges, &mut forces);
        let energy_at = |p: &[Vec3]| {
            let mut scratch = vec![Vec3::ZERO; p.len()];
            gse.energy_forces(p, &charges, &mut scratch)
        };
        // The grid energy carries ~1e-5-relative spreading-truncation noise,
        // so the finite-difference step must be large enough that the true
        // energy change dominates that noise.
        let h = 0.05;
        let mut p = positions.clone();
        // Check one atom fully; gradient evaluation is expensive.
        for c in 0..3 {
            let orig = p[0][c];
            p[0][c] = orig + h;
            let ep = energy_at(&p);
            p[0][c] = orig - h;
            let em = energy_at(&p);
            p[0][c] = orig;
            let num = -(ep - em) / (2.0 * h);
            assert!(
                (forces[0][c] - num).abs() < 2e-2 * (1.0 + num.abs()),
                "comp {c}: {} vs {num}",
                forces[0][c]
            );
        }
    }

    #[test]
    fn forces_sum_to_zero() {
        let (pbc, positions, charges) = test_charges();
        let gse = Gse::new(0.5, pbc, GseParams::for_box(0.5, &pbc));
        let mut f = vec![Vec3::ZERO; positions.len()];
        gse.energy_forces(&positions, &charges, &mut f);
        // The mean-net-force correction makes this exact (up to f64
        // summation noise).
        let total: Vec3 = f.iter().copied().sum();
        assert!(total.norm() < 1e-9, "net force {total:?}");
    }

    #[test]
    fn deterministic() {
        let (pbc, positions, charges) = test_charges();
        let gse = Gse::new(0.5, pbc, GseParams::for_box(0.5, &pbc));
        let run = || {
            let mut f = vec![Vec3::ZERO; positions.len()];
            let e = gse.energy_forces(&positions, &charges, &mut f);
            (
                e.to_bits(),
                f.iter().map(|v| v.x.to_bits()).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn parallel_spread_matches_serial_bitwise() {
        let (pbc, positions, charges) = charge_cloud(300, 20.0, 7);
        let gse = Gse::new(0.5, pbc, GseParams::for_box(0.5, &pbc));
        let serial = gse.spread(&positions, &charges);
        let mut par = Grid3::zeros(gse.params.nx, gse.params.ny, gse.params.nz);
        gse.spread_into_parallel(&positions, &charges, &mut par);
        for (a, b) in serial.data.iter().zip(&par.data) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    /// Sub-support box: the grid is narrower than the stencil, so single
    /// atoms wrap onto the same plane (and the same cells) several times.
    /// The binned parallel scatter must replay exactly the serial multi-hit
    /// order.
    #[test]
    fn sub_support_box_parallel_matches_serial_bitwise() {
        let (pbc, positions, charges) = charge_cloud(60, 5.0, 11);
        let gse = Gse::new(0.5, pbc, GseParams::for_box(0.5, &pbc));
        let c = &gse.ctx;
        assert!(
            c.widths[0] > gse.params.nx,
            "box not sub-support: width {} vs nx {}",
            c.widths[0],
            gse.params.nx
        );
        let serial = gse.spread(&positions, &charges);
        let mut par = Grid3::zeros(gse.params.nx, gse.params.ny, gse.params.nz);
        gse.spread_into_parallel(&positions, &charges, &mut par);
        for (a, b) in serial.data.iter().zip(&par.data) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
        }
    }

    #[test]
    fn workspace_parallel_matches_plain_energy_forces() {
        let (pbc, positions, charges) = charge_cloud(300, 20.0, 7);
        let gse = Gse::new(0.5, pbc, GseParams::for_box(0.5, &pbc));
        let mut f_ref = vec![Vec3::ZERO; positions.len()];
        let e_ref = gse.energy_forces(&positions, &charges, &mut f_ref);

        let mut ws = GseWorkspace::for_gse(&gse);
        for parallel in [false, true] {
            let mut f = vec![Vec3::ZERO; positions.len()];
            let e = gse.energy_forces_with(&positions, &charges, &mut f, &mut ws, parallel);
            // Serial-with-workspace and parallel must both agree with the
            // plain path to the last bit of the forces.
            assert_eq!(e.to_bits(), e_ref.to_bits(), "parallel={parallel}");
            for (i, (a, b)) in f.iter().zip(&f_ref).enumerate() {
                assert!(
                    (*a - *b).norm() == 0.0,
                    "parallel={parallel} atom {i}: {a:?} vs {b:?}"
                );
            }
        }
    }

    /// Satellite: clearing and re-spreading into a dirty grid must equal a
    /// fresh spread — the engine's workspace reuses grids across steps.
    #[test]
    fn grid_reuse_after_clear_matches_fresh_spread() {
        let (pbc, positions, charges) = test_charges();
        let gse = Gse::new(0.5, pbc, GseParams::for_box(0.5, &pbc));
        let fresh = gse.spread(&positions, &charges);

        let mut reused = Grid3::zeros(gse.params.nx, gse.params.ny, gse.params.nz);
        // Dirty the grid with a different configuration first.
        let moved: Vec<Vec3> = positions.iter().map(|p| *p + v3(1.0, -2.0, 0.5)).collect();
        gse.spread_into(&moved, &charges, &mut reused);
        reused.clear();
        gse.spread_into(&positions, &charges, &mut reused);
        for (a, b) in fresh.data.iter().zip(&reused.data) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn params_for_box_sane() {
        let pbc = PbcBox::cubic(40.0);
        let p = GseParams::for_box(0.35, &pbc);
        assert!(p.nx.is_power_of_two());
        // Spacing at or below 1.25 sigma.
        assert!(p.spacing(&pbc).x <= 1.25 * p.sigma + 1e-12);
        // σ² < 1/(4α²).
        assert!(p.sigma * p.sigma < 1.0 / (4.0 * 0.35 * 0.35));
    }

    #[test]
    #[should_panic(expected = "sized for another solver")]
    fn spread_into_rejects_a_grid_of_another_shape() {
        let (pbc, positions, charges) = test_charges();
        let gse = Gse::new(0.5, pbc, GseParams::for_box(0.5, &pbc));
        let p = gse.params;
        let mut rho = Grid3::zeros(p.nx, p.ny, p.nz / 2);
        gse.spread_into(&positions, &charges, &mut rho);
    }

    #[test]
    #[should_panic(expected = "too wide")]
    fn oversized_sigma_rejected() {
        let pbc = PbcBox::cubic(16.0);
        let mut p = GseParams::for_box(0.5, &pbc);
        p.sigma = 2.0; // 1/(2α) = 1.0, so 2.0 is invalid
        Gse::new(0.5, pbc, p);
    }
}
