//! Property tests for the separable GSE spread/interpolate path: over
//! random charge clouds and box sizes — including boxes smaller than the
//! stencil support (atoms wrap onto the same plane repeatedly) and atoms
//! pinned to the periodic seam — the counting-sort binned parallel spread
//! must be **bitwise identical** to the serial spread at any thread count,
//! and the whole k-space pipeline (spread + FFT + lane-batched
//! interpolation) must produce bitwise identical energies and forces on
//! the serial and parallel paths.
//!
//! Accuracy (vs. the classic-Ewald oracle and the pre-rework fused
//! kernels) is gated by the unit tests in `crates/md/src/gse.rs`; this
//! file gates only determinism.

use anton2_fft::Grid3;
use anton2_md::gse::{Gse, GseParams, GseWorkspace};
use anton2_md::pbc::PbcBox;
use anton2_md::vec3::{v3, Vec3};
use proptest::prelude::*;

/// Small deterministic generator; proptest supplies only the seed, keeping
/// case generation cheap.
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A random neutral-ish cloud in a cubic box of edge `l`. Every 6th charge
/// is zero (charged-slot compaction must skip them); the first few atoms
/// are pinned onto the periodic seam (coordinates 0 and `l`, where the
/// stencil wraps) rather than strewn uniformly.
fn cloud(seed: u64, n: usize, l: f64) -> (Vec<Vec3>, Vec<f64>) {
    let mut rng = Lcg(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut positions = Vec::with_capacity(n);
    let mut charges = Vec::with_capacity(n);
    for i in 0..n {
        let p = match i {
            0 => v3(0.0, 0.0, 0.0),
            1 => v3(l, 0.5 * l, 1e-9),
            2 => v3(0.5 * l, l - 1e-9, 0.0),
            _ => v3(rng.next_f64() * l, rng.next_f64() * l, rng.next_f64() * l),
        };
        positions.push(p);
        let q = if i % 6 == 4 {
            0.0
        } else {
            let mag = 0.2 + 0.8 * rng.next_f64();
            if i % 2 == 0 {
                mag
            } else {
                -mag
            }
        };
        charges.push(q);
    }
    (positions, charges)
}

fn assert_grids_bitwise(a: &Grid3, b: &Grid3, what: &str) {
    for (i, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
        assert_eq!(
            x.re.to_bits(),
            y.re.to_bits(),
            "{what}: grid cell {i} differs"
        );
        assert_eq!(x.im.to_bits(), y.im.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Boxes from 4.5 Å (well under the ~13-point stencil width at α=0.5 —
    /// every atom wraps onto every plane more than once) to 24 Å (normal
    /// support), swept over 1/2/3/5 rayon threads. Every thread count must
    /// reproduce the serial grid, energy, and forces to the last bit.
    #[test]
    fn binned_parallel_spread_is_bitwise_serial(
        seed in 0u64..10_000,
        n in 8usize..96,
        l in 4.5f64..24.0,
    ) {
        let pbc = PbcBox::cubic(l);
        let (positions, charges) = cloud(seed, n, l);
        let alpha = 0.5;
        let gse = Gse::new(alpha, pbc, GseParams::for_box(alpha, &pbc));

        std::env::set_var("RAYON_NUM_THREADS", "1");
        let serial = gse.spread(&positions, &charges);
        let mut ws = GseWorkspace::for_gse(&gse);
        let mut f_serial = vec![Vec3::ZERO; n];
        let e_serial =
            gse.energy_forces_with(&positions, &charges, &mut f_serial, &mut ws, false);

        for threads in [1usize, 2, 3, 5] {
            std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
            let mut par = Grid3::zeros(gse.params.nx, gse.params.ny, gse.params.nz);
            gse.spread_into_parallel(&positions, &charges, &mut par);
            assert_grids_bitwise(&serial, &par, &format!("{threads} threads"));

            let mut f_par = vec![Vec3::ZERO; n];
            let e_par =
                gse.energy_forces_with(&positions, &charges, &mut f_par, &mut ws, true);
            assert_eq!(
                e_par.to_bits(),
                e_serial.to_bits(),
                "energy differs at {threads} threads"
            );
            for (i, (a, b)) in f_par.iter().zip(&f_serial).enumerate() {
                assert_eq!(a.x.to_bits(), b.x.to_bits(), "atom {i} fx, {threads} threads");
                assert_eq!(a.y.to_bits(), b.y.to_bits(), "atom {i} fy, {threads} threads");
                assert_eq!(a.z.to_bits(), b.z.to_bits(), "atom {i} fz, {threads} threads");
            }
        }
        std::env::remove_var("RAYON_NUM_THREADS");
    }
}

/// FNV-1a over the bits of every force component, in atom order.
fn force_digest(forces: &[Vec3]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in forces {
        for c in [f.x, f.y, f.z] {
            h = (h ^ c.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(energy bits, force digest)` of one evaluation on the serial path and on
/// the parallel path at 1, 2 and 3 threads, in that order.
fn kspace_bits(gse: &Gse, positions: &[Vec3], charges: &[f64]) -> Vec<(u64, u64)> {
    let mut ws = GseWorkspace::for_gse(gse);
    let mut out = Vec::new();
    for (parallel, threads) in [(false, 1), (true, 1), (true, 2), (true, 3)] {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        let mut f = vec![Vec3::ZERO; positions.len()];
        let e = gse.energy_forces_with(positions, charges, &mut f, &mut ws, parallel);
        out.push((e.to_bits(), force_digest(&f)));
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    out
}

/// Bits pinned from the layout before the padded real grid and the
/// row-batched FFT passes: a layout change must not move a single bit of
/// the energy or the forces, on the serial or the parallel path. The box is
/// non-cubic, so each axis has its own grid length and stencil width.
#[test]
fn energy_and_forces_pinned_on_normal_box() {
    let pbc = PbcBox::new(21.0, 17.5, 24.0);
    let (positions, charges) = cloud(7, 300, 17.5);
    let gse = Gse::new(0.5, pbc, GseParams::for_box(0.5, &pbc));
    let expect = (0x40bc_3ddb_af2f_6b9e, 0x024d_2df8_9dc8_542f);
    for (i, got) in kspace_bits(&gse, &positions, &charges)
        .into_iter()
        .enumerate()
    {
        assert_eq!(got, expect, "case {i}: {got:#x?}");
    }
}

/// The same pin on a sub-support grid: four z-planes under a 9-point
/// z-stencil, so every stencil row wraps the z axis more than twice, and
/// 15-point x/y stencils on 8-point axes.
#[test]
fn energy_and_forces_pinned_on_sub_support_box() {
    let pbc = PbcBox::cubic(4.5);
    let (positions, charges) = cloud(11, 40, 4.5);
    let params = GseParams {
        nz: 4,
        ..GseParams::for_box(0.5, &pbc)
    };
    let gse = Gse::new(0.5, pbc, params);
    let expect = (0x4066_3a9a_dcfe_7970, 0xba91_605c_eda5_3944);
    for (i, got) in kspace_bits(&gse, &positions, &charges)
        .into_iter()
        .enumerate()
    {
        assert_eq!(got, expect, "case {i}: {got:#x?}");
    }
}
