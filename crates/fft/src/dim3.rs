//! 3D FFT over a dense grid, the shape used by the k-space electrostatics
//! solver (Gaussian-split Ewald) in `anton2-md`.

use crate::complex::C64;
use crate::radix::Fft;
use rayon::prelude::*;
use rayon::ParallelSliceMut;

/// A dense 3D complex grid with `z` as the fastest-varying axis.
#[derive(Clone, Debug)]
pub struct Grid3 {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub data: Vec<C64>,
}

impl Grid3 {
    /// A zero-filled grid of the given dimensions.
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Self {
        Grid3 {
            nx,
            ny,
            nz,
            data: vec![C64::ZERO; nx * ny * nz],
        }
    }

    /// Number of grid points.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat index of `(ix, iy, iz)`.
    #[inline]
    pub fn idx(&self, ix: usize, iy: usize, iz: usize) -> usize {
        debug_assert!(ix < self.nx && iy < self.ny && iz < self.nz);
        (ix * self.ny + iy) * self.nz + iz
    }

    #[inline]
    pub fn get(&self, ix: usize, iy: usize, iz: usize) -> C64 {
        self.data[self.idx(ix, iy, iz)]
    }

    #[inline]
    pub fn set(&mut self, ix: usize, iy: usize, iz: usize, v: C64) {
        let i = self.idx(ix, iy, iz);
        self.data[i] = v;
    }

    /// Add `v` at `(ix, iy, iz)`.
    #[inline]
    pub fn add(&mut self, ix: usize, iy: usize, iz: usize, v: C64) {
        let i = self.idx(ix, iy, iz);
        self.data[i] += v;
    }

    /// Reset every point to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(C64::ZERO);
    }
}

/// The shape token of [`Fft3`]'s `_with` entry points. Every pass runs in
/// place — z lines are contiguous, and the y and x passes batch whole rows
/// of interleaved lines through the butterflies (`Fft::transform_rows`) —
/// so no pass needs a gather row or a transpose buffer, and the scratch
/// holds no buffers. The `_with` calls check it against the grid.
#[derive(Clone, Debug)]
pub struct Fft3Scratch {
    nx: usize,
    ny: usize,
    nz: usize,
}

impl Fft3Scratch {
    /// Scratch sized for an `nx × ny × nz` grid.
    pub fn for_grid(nx: usize, ny: usize, nz: usize) -> Self {
        Fft3Scratch { nx, ny, nz }
    }
}

/// A reusable plan for 3D transforms of one grid shape.
#[derive(Clone, Debug)]
pub struct Fft3 {
    fx: Fft,
    fy: Fft,
    fz: Fft,
}

impl Fft3 {
    /// Plan transforms for an `nx × ny × nz` grid (each a power of two).
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Fft3 {
            fx: Fft::new(nx),
            fy: Fft::new(ny),
            fz: Fft::new(nz),
        }
    }

    /// Forward 3D DFT in place (no scaling), on the calling thread.
    pub fn forward(&self, g: &mut Grid3) {
        self.check(g);
        self.transform(g, false, false);
    }

    /// Inverse 3D DFT in place, scaled by `1/(nx·ny·nz)`, on the calling
    /// thread.
    pub fn inverse(&self, g: &mut Grid3) {
        self.check(g);
        self.transform(g, true, false);
        scale_inverse(&mut g.data, g.nx * g.ny * g.nz, false);
    }

    /// Forward 3D DFT in place. `parallel` fans the x-slabs of the z and y
    /// passes and the row blocks of the x pass out across threads; serial
    /// and parallel results are bitwise identical because every line sees
    /// the same arithmetic either way.
    pub fn forward_with(&self, g: &mut Grid3, scratch: &mut Fft3Scratch, parallel: bool) {
        self.check(g);
        check_scratch(g, scratch);
        self.transform(g, false, parallel);
    }

    /// Inverse 3D DFT in place, scaled by `1/(nx·ny·nz)`. See
    /// [`Fft3::forward_with`] for the `parallel` contract.
    pub fn inverse_with(&self, g: &mut Grid3, scratch: &mut Fft3Scratch, parallel: bool) {
        self.check(g);
        check_scratch(g, scratch);
        self.transform(g, true, parallel);
        scale_inverse(&mut g.data, g.nx * g.ny * g.nz, parallel);
    }

    fn check(&self, g: &Grid3) {
        assert_eq!(self.fx.len(), g.nx);
        assert_eq!(self.fy.len(), g.ny);
        assert_eq!(self.fz.len(), g.nz);
    }

    /// The three passes, z then y then x. An x-slab (`ny·nz` points) is
    /// closed under the z and y passes, so each slab runs its z lines and
    /// then its y pass — `ny` rows of `nz` interleaved y-lines — while it
    /// is in cache. The x pass batches whole slabs: `nx` rows of `ny·nz`
    /// interleaved x-lines.
    fn transform(&self, g: &mut Grid3, inverse: bool, parallel: bool) {
        let nz = g.nz;
        let slab = g.ny * nz;
        let zy = |s: &mut [C64]| {
            for line in s.chunks_exact_mut(nz) {
                if inverse {
                    self.fz.inverse_unscaled(line);
                } else {
                    self.fz.forward(line);
                }
            }
            self.fy.transform_rows(s, nz, inverse, 1);
        };
        if parallel {
            g.data.par_chunks_mut(slab).for_each(zy);
            let forks = rayon::current_num_threads();
            self.fx.transform_rows(&mut g.data, slab, inverse, forks);
        } else {
            g.data.chunks_exact_mut(slab).for_each(zy);
            self.fx.transform_rows(&mut g.data, slab, inverse, 1);
        }
    }
}

fn check_scratch(g: &Grid3, s: &Fft3Scratch) {
    assert!(
        s.nx == g.nx && s.ny == g.ny && s.nz == g.nz,
        "Fft3Scratch sized for {}x{}x{}, grid is {}x{}x{}",
        s.nx,
        s.ny,
        s.nz,
        g.nx,
        g.ny,
        g.nz
    );
}

/// Apply the `1/N` inverse-DFT normalization. Elementwise, so the parallel
/// path is bitwise identical to the serial one.
fn scale_inverse(data: &mut [C64], n: usize, parallel: bool) {
    let s = 1.0 / n as f64;
    if parallel {
        data.par_iter_mut().for_each(|z| *z = z.scale(s));
    } else {
        for z in data.iter_mut() {
            *z = z.scale(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(nx: usize, ny: usize, nz: usize) -> Grid3 {
        let mut g = Grid3::zeros(nx, ny, nz);
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nz {
                    let v = C64::new(
                        ((ix * 31 + iy * 7 + iz) as f64).sin(),
                        ((ix + iy * 13 + iz * 3) as f64).cos(),
                    );
                    g.set(ix, iy, iz, v);
                }
            }
        }
        g
    }

    #[test]
    fn roundtrip_identity_nonuniform_dims() {
        let (nx, ny, nz) = (8, 4, 16);
        let plan = Fft3::new(nx, ny, nz);
        let orig = filled(nx, ny, nz);
        let mut g = orig.clone();
        plan.forward(&mut g);
        plan.inverse(&mut g);
        let err = g
            .data
            .iter()
            .zip(&orig.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-10, "roundtrip error {err}");
    }

    #[test]
    fn impulse_is_flat_spectrum() {
        let plan = Fft3::new(4, 4, 4);
        let mut g = Grid3::zeros(4, 4, 4);
        g.set(0, 0, 0, C64::ONE);
        plan.forward(&mut g);
        for z in &g.data {
            assert!((*z - C64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn separable_tone_lands_in_one_bin() {
        let (nx, ny, nz) = (8, 8, 8);
        let plan = Fft3::new(nx, ny, nz);
        let (kx, ky, kz) = (2, 3, 5);
        let mut g = Grid3::zeros(nx, ny, nz);
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nz {
                    let ph = 2.0 * std::f64::consts::PI * (kx * ix) as f64 / nx as f64
                        + 2.0 * std::f64::consts::PI * (ky * iy) as f64 / ny as f64
                        + 2.0 * std::f64::consts::PI * (kz * iz) as f64 / nz as f64;
                    g.set(ix, iy, iz, C64::cis(ph));
                }
            }
        }
        plan.forward(&mut g);
        let total = (nx * ny * nz) as f64;
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nz {
                    let mag = g.get(ix, iy, iz).abs();
                    if (ix, iy, iz) == (kx, ky, kz) {
                        assert!((mag - total).abs() < 1e-8);
                    } else {
                        assert!(mag < 1e-8, "leakage at ({ix},{iy},{iz})");
                    }
                }
            }
        }
    }

    #[test]
    fn parseval_3d() {
        let (nx, ny, nz) = (8, 8, 8);
        let plan = Fft3::new(nx, ny, nz);
        let orig = filled(nx, ny, nz);
        let te: f64 = orig.data.iter().map(|z| z.norm_sqr()).sum();
        let mut g = orig.clone();
        plan.forward(&mut g);
        let fe: f64 = g.data.iter().map(|z| z.norm_sqr()).sum::<f64>() / (nx * ny * nz) as f64;
        assert!((te - fe).abs() < 1e-8 * te);
    }

    /// The `_with` entry points — serial and parallel — must reproduce the
    /// allocating transform bit for bit: every 1D line sees the same
    /// arithmetic regardless of scheduling.
    #[test]
    fn with_scratch_matches_plain_bitwise() {
        let (nx, ny, nz) = (8, 4, 16);
        let plan = Fft3::new(nx, ny, nz);
        let mut scratch = Fft3Scratch::for_grid(nx, ny, nz);
        let orig = filled(nx, ny, nz);

        let mut reference = orig.clone();
        plan.forward(&mut reference);
        plan.inverse(&mut reference);

        for parallel in [false, true] {
            let mut g = orig.clone();
            plan.forward_with(&mut g, &mut scratch, parallel);
            plan.inverse_with(&mut g, &mut scratch, parallel);
            for (a, b) in g.data.iter().zip(&reference.data) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "parallel={parallel}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "parallel={parallel}");
            }
        }
    }

    /// The pass structure before row batching: every line gathered on its
    /// own and transformed with [`Fft::forward`]/[`Fft::inverse_unscaled`],
    /// z then y then x.
    fn per_line(g: &mut Grid3, inverse: bool) {
        let (nx, ny, nz) = (g.nx, g.ny, g.nz);
        let run = |n: usize, line: &mut Vec<C64>| {
            let plan = Fft::new(n);
            if inverse {
                plan.inverse_unscaled(line);
            } else {
                plan.forward(line);
            }
        };
        let idx = |ix: usize, iy: usize, iz: usize| (ix * ny + iy) * nz + iz;
        for ix in 0..nx {
            for iy in 0..ny {
                let mut line: Vec<C64> = (0..nz).map(|iz| g.data[idx(ix, iy, iz)]).collect();
                run(nz, &mut line);
                for (iz, v) in line.into_iter().enumerate() {
                    g.data[idx(ix, iy, iz)] = v;
                }
            }
        }
        for ix in 0..nx {
            for iz in 0..nz {
                let mut line: Vec<C64> = (0..ny).map(|iy| g.data[idx(ix, iy, iz)]).collect();
                run(ny, &mut line);
                for (iy, v) in line.into_iter().enumerate() {
                    g.data[idx(ix, iy, iz)] = v;
                }
            }
        }
        for iy in 0..ny {
            for iz in 0..nz {
                let mut line: Vec<C64> = (0..nx).map(|ix| g.data[idx(ix, iy, iz)]).collect();
                run(nx, &mut line);
                for (ix, v) in line.into_iter().enumerate() {
                    g.data[idx(ix, iy, iz)] = v;
                }
            }
        }
    }

    fn assert_bitwise(a: &Grid3, b: &Grid3, what: &str) {
        for (i, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{what}: point {i}: {x:?} vs {y:?}"
            );
        }
    }

    /// Row batching changes no bit: on non-cubic grids, including grids
    /// with an axis of length 1, the serial transform equals the per-line
    /// passes, and the parallel one equals the serial one at 1, 2 and 3
    /// threads (uneven splits of the slabs and of the x-pass row blocks).
    #[test]
    fn row_batched_passes_match_per_line_bitwise() {
        let shapes = [
            (8, 4, 16),
            (2, 16, 8),
            (1, 8, 4),
            (16, 1, 2),
            (4, 8, 1),
            (32, 2, 4),
        ];
        for (nx, ny, nz) in shapes {
            let plan = Fft3::new(nx, ny, nz);
            let mut scratch = Fft3Scratch::for_grid(nx, ny, nz);
            let orig = filled(nx, ny, nz);
            for inverse in [false, true] {
                let mut want = orig.clone();
                per_line(&mut want, inverse);
                let mut serial = orig.clone();
                plan.transform(&mut serial, inverse, false);
                let what = format!("{nx}x{ny}x{nz} inverse={inverse}");
                assert_bitwise(&serial, &want, &format!("serial {what}"));
                for threads in [1, 2, 3] {
                    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
                    let mut par = orig.clone();
                    if inverse {
                        plan.inverse_with(&mut par, &mut scratch, true);
                        let mut s = orig.clone();
                        plan.inverse(&mut s);
                        assert_bitwise(&par, &s, &format!("{threads} threads {what}"));
                    } else {
                        plan.forward_with(&mut par, &mut scratch, true);
                        assert_bitwise(&par, &want, &format!("{threads} threads {what}"));
                    }
                }
                std::env::remove_var("RAYON_NUM_THREADS");
            }
        }
    }

    /// Scratch reuse across calls must not leak state between transforms.
    #[test]
    fn scratch_reuse_is_clean() {
        let (nx, ny, nz) = (4, 8, 8);
        let plan = Fft3::new(nx, ny, nz);
        let mut scratch = Fft3Scratch::for_grid(nx, ny, nz);
        let orig = filled(nx, ny, nz);

        let mut first = orig.clone();
        plan.forward_with(&mut first, &mut scratch, true);
        // Dirty the scratch with a second, different transform...
        let mut other = Grid3::zeros(nx, ny, nz);
        other.set(1, 2, 3, C64::ONE);
        plan.forward_with(&mut other, &mut scratch, true);
        // ...then repeat the first and demand bitwise agreement.
        let mut again = orig.clone();
        plan.forward_with(&mut again, &mut scratch, true);
        for (a, b) in first.data.iter().zip(&again.data) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "Fft3Scratch sized for")]
    fn mismatched_scratch_rejected() {
        let plan = Fft3::new(8, 8, 8);
        let mut scratch = Fft3Scratch::for_grid(4, 4, 4);
        let mut g = Grid3::zeros(8, 8, 8);
        plan.forward_with(&mut g, &mut scratch, false);
    }

    #[test]
    fn grid_indexing_roundtrip() {
        let g = Grid3::zeros(4, 8, 16);
        assert_eq!(g.idx(0, 0, 0), 0);
        assert_eq!(g.idx(0, 0, 1), 1);
        assert_eq!(g.idx(0, 1, 0), 16);
        assert_eq!(g.idx(1, 0, 0), 128);
        assert_eq!(g.len(), 4 * 8 * 16);
    }

    #[test]
    fn linearity() {
        let (nx, ny, nz) = (4, 4, 8);
        let plan = Fft3::new(nx, ny, nz);
        let a = filled(nx, ny, nz);
        let mut b = filled(nx, ny, nz);
        for z in b.data.iter_mut() {
            *z = z.scale(0.5) + C64::new(0.1, -0.2);
        }
        // F(a + 2b) == F(a) + 2 F(b)
        let mut sum = a.clone();
        for (s, bv) in sum.data.iter_mut().zip(&b.data) {
            *s += bv.scale(2.0);
        }
        plan.forward(&mut sum);
        let mut fa = a.clone();
        plan.forward(&mut fa);
        let mut fb = b.clone();
        plan.forward(&mut fb);
        let err = sum
            .data
            .iter()
            .zip(fa.data.iter().zip(&fb.data))
            .map(|(s, (x, y))| (*s - (*x + y.scale(2.0))).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-9);
    }
}
