//! Accuracy budget of the real-space nonbonded forces.
//!
//! The engine's real-space forces — the fixed-point pair stream plus the
//! excluded-pair corrections — are compared with an oracle that sums every
//! pair in f64 with the exact `erfc`. The error is split by source: the
//! pair function's approximation (the engine's scalar kernel summed in f64,
//! against the oracle) and fixed-point rounding (the stream against that
//! f64 sum).
//!
//! **Budget:** the rms of the total real-space error stays within 1 % of
//! the rms error of the GSE k-space forces against classic Ewald converged
//! to 1e-10 on the same system. GSE's error is the precision the production
//! electrostatics already accepts, so a real-space approximation inside 1 %
//! of it cannot be what limits the force. Within that, the pair function's
//! share stays below the fixed-point share: rounding each pair force to the
//! 2⁻²⁴ quantum is the floor of this datapath, and the Coulomb table's
//! width (`erfc::SEGMENT_BITS`) is the smallest that stays under it. Run
//! with `--nocapture` for the table.

use anton2::md::builders::{solvated_protein, water_box};
use anton2::md::erfc::erfc;
use anton2::md::ewald::EwaldKSpace;
use anton2::md::gse::{Gse, GseParams};
use anton2::md::pairkernel::{excluded_corrections, pair_interaction_split};
use anton2::md::stream::{nonbonded_forces_streamed, NonbondedWorkspace};
use anton2::md::units::COULOMB;
use anton2::md::vec3::Vec3;
use anton2::md::System;
use std::f64::consts::FRAC_2_SQRT_PI;

/// Share of the k-space rms error the real-space rms error may use.
const BUDGET: f64 = 0.01;

/// Real-space forces of every non-excluded in-cutoff pair plus the
/// excluded-pair corrections, summed in f64. `coulomb(r_sq, qq)` gives the
/// pair's Coulomb force over r; the LJ force is the same in every sum.
fn pair_sum(s: &System, coulomb: impl Fn(f64, f64) -> f64, forces: &mut [Vec3]) {
    let top = &s.topology;
    let cutoff_sq = s.nb.cutoff * s.nb.cutoff;
    for i in 0..s.n_atoms() {
        for j in i + 1..s.n_atoms() {
            let d = s.pbc.min_image(s.positions[i], s.positions[j]);
            let r_sq = d.norm_sq();
            if r_sq >= cutoff_sq || top.exclusions.is_excluded(i, j) {
                continue;
            }
            let lj = s.forcefield.lj(top.lj_types[i], top.lj_types[j]);
            let r6_inv = 1.0 / (r_sq * r_sq * r_sq);
            let f_lj = (12.0 * lj.a * r6_inv - 6.0 * lj.b) * r6_inv / r_sq;
            let f = d * (f_lj + coulomb(r_sq, top.charges[i] * top.charges[j]));
            forces[i] += f;
            forces[j] -= f;
        }
    }
}

/// The oracle: exact `erfc` for the pairs, exact `erf` for the excluded
/// pairs, all in f64.
fn oracle(s: &System) -> Vec<Vec3> {
    let alpha = s.nb.ewald_alpha;
    let mut f = vec![Vec3::ZERO; s.n_atoms()];
    pair_sum(
        s,
        |r_sq, qq| {
            let r = r_sq.sqrt();
            let g = FRAC_2_SQRT_PI * alpha * (-alpha * alpha * r_sq).exp();
            COULOMB * qq * (erfc(alpha * r) / r + g) / r_sq
        },
        &mut f,
    );
    let top = &s.topology;
    for i in 0..s.n_atoms() {
        for &j in &top.exclusions.full[i] {
            let j = j as usize;
            if j <= i {
                continue;
            }
            let d = s.pbc.min_image(s.positions[i], s.positions[j]);
            let r_sq = d.norm_sq();
            let r = r_sq.sqrt();
            let qq = top.charges[i] * top.charges[j];
            let erf = 1.0 - erfc(alpha * r);
            let g = FRAC_2_SQRT_PI * alpha * (-alpha * alpha * r_sq).exp();
            let f_over_r = -COULOMB * qq * (erf / r - g) / r_sq;
            f[i] += d * f_over_r;
            f[j] -= d * f_over_r;
        }
    }
    f
}

/// The engine's kernel, summed in f64: what the stream would give with
/// exact accumulation.
fn kernel_f64(s: &System) -> Vec<Vec3> {
    let table = s.pair_table();
    let mut f = vec![Vec3::ZERO; s.n_atoms()];
    pair_sum(
        s,
        |r_sq, qq| pair_interaction_split(r_sq, 0.0, 0.0, 0.0, qq, table.coulomb()).1,
        &mut f,
    );
    excluded_corrections(s, table.coulomb(), &mut f);
    f
}

/// The engine's real-space forces: fixed-point pair stream plus the
/// excluded-pair corrections.
fn engine(s: &System) -> Vec<Vec3> {
    let table = s.pair_table();
    let mut f = vec![Vec3::ZERO; s.n_atoms()];
    nonbonded_forces_streamed(s, &table, &mut NonbondedWorkspace::new(), &mut f, false);
    excluded_corrections(s, table.coulomb(), &mut f);
    f
}

/// `(rms, max)` of the per-atom error vector `a − b`.
fn error(a: &[Vec3], b: &[Vec3]) -> (f64, f64) {
    let d: Vec<f64> = a.iter().zip(b).map(|(x, y)| (*x - *y).norm()).collect();
    let rms = (d.iter().map(|x| x * x).sum::<f64>() / d.len() as f64).sqrt();
    (rms, d.iter().copied().fold(0.0, f64::max))
}

fn rms(f: &[Vec3]) -> f64 {
    (f.iter().map(|x| x.norm_sq()).sum::<f64>() / f.len() as f64).sqrt()
}

/// GSE k-space forces against classic Ewald converged to 1e-10.
fn kspace_error(s: &System) -> (f64, f64) {
    let alpha = s.nb.ewald_alpha;
    let q = &s.topology.charges;
    let mut gse = vec![Vec3::ZERO; s.n_atoms()];
    Gse::new(alpha, s.pbc, GseParams::for_box(alpha, &s.pbc)).energy_forces(
        &s.positions,
        q,
        &mut gse,
    );
    let mut ewald = vec![Vec3::ZERO; s.n_atoms()];
    EwaldKSpace::for_box(alpha, &s.pbc, 1e-10).energy_forces(&s.pbc, &s.positions, q, &mut ewald);
    error(&gse, &ewald)
}

fn check_budget(name: &str, s: &System) {
    let exact = oracle(s);
    let kernel = kernel_f64(s);
    let stream = engine(s);
    let scale = rms(&exact);
    let rows = [
        ("real space, total", error(&stream, &exact)),
        ("  pair function", error(&kernel, &exact)),
        ("  fixed point", error(&stream, &kernel)),
        ("k-space (GSE vs Ewald)", kspace_error(s)),
    ];
    println!(
        "{name}: {} atoms, rms real-space force {scale:.3} kcal/mol/Å",
        s.n_atoms()
    );
    println!(
        "  {:<24} {:>10} {:>10} {:>10} {:>10}",
        "source", "rms", "max", "rms/|F|", "max/|F|"
    );
    for (label, (r, m)) in rows {
        println!(
            "  {label:<24} {r:>10.2e} {m:>10.2e} {:>10.2e} {:>10.2e}",
            r / scale,
            m / scale
        );
    }
    let [(total, _), (function, _), (fixed, _), (kspace, _)] = rows.map(|r| r.1);
    assert!(
        total <= BUDGET * kspace,
        "{name}: real-space rms error {total:.3e} exceeds {BUDGET} of the k-space rms error {kspace:.3e}"
    );
    assert!(
        function <= fixed,
        "{name}: pair-function rms error {function:.3e} exceeds the fixed-point share {fixed:.3e}"
    );
}

#[test]
fn real_space_error_within_budget_on_water() {
    check_budget("water 6³", &water_box(6, 6, 6, 3));
}

#[test]
fn real_space_error_within_budget_on_solvated_protein() {
    check_budget("solvated protein", &solvated_protein(60, 180, 9));
}
