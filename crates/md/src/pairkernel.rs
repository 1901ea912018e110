//! Range-limited nonbonded kernels: Lennard-Jones plus the real-space part
//! of Ewald electrostatics.
//!
//! This is exactly the arithmetic each Anton 2 PPIM pipeline evaluates per
//! atom pair; the machine co-simulator calls into the same functions so the
//! simulated hardware produces real forces.

use crate::erfc::CoulombTable;
use crate::system::System;
use crate::topology::Exclusions;
use crate::units::COULOMB;
use crate::vec3::Vec3;

/// Energy/virial tallies from a nonbonded evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NonbondedEnergy {
    /// Lennard-Jones energy (potential-shifted at the cutoff), kcal/mol.
    pub lj: f64,
    /// Real-space (erfc-screened) Coulomb energy, kcal/mol.
    pub coulomb_real: f64,
    /// Total scalar virial `Σ r·F`, kcal/mol.
    pub virial: f64,
    /// LJ-only part of the virial (the Coulomb part of the pressure comes
    /// from the Ewald identity `W_coul = U_coul`; see `crate::pressure`).
    pub virial_lj: f64,
}

impl NonbondedEnergy {
    pub fn total(&self) -> f64 {
        self.lj + self.coulomb_real
    }
}

/// Evaluate LJ + real-space Ewald for one pair at squared distance `r_sq`,
/// with the force split by interaction class.
///
/// Returns `(f_lj_over_r, f_coul_over_r, lj_energy, coulomb_energy)`;
/// force-over-r times the displacement vector gives the force on atom `i`
/// (positive = repulsive). `lj_shift` is the LJ energy at the cutoff, which
/// is subtracted to keep the potential continuous (standard potential-shift
/// truncation). The screened Coulomb part is read from `coulomb` by r².
#[inline]
pub fn pair_interaction_split(
    r_sq: f64,
    lj_a: f64,
    lj_b: f64,
    lj_shift: f64,
    qq: f64,
    coulomb: &CoulombTable,
) -> (f64, f64, f64, f64) {
    let r2_inv = 1.0 / r_sq;
    let r6_inv = r2_inv * r2_inv * r2_inv;
    let e_lj = (lj_a * r6_inv - lj_b) * r6_inv - lj_shift;
    let f_lj = (12.0 * lj_a * r6_inv - 6.0 * lj_b) * r6_inv * r2_inv;
    let (e, f) = coulomb.eval(r_sq);
    (f_lj, COULOMB * qq * f, e_lj, COULOMB * qq * e)
}

/// Lane width of the batched pair kernel ([`pair_interaction_lanes`]);
/// matches the `[f64; 8]` batch of [`CoulombTable::eval8`].
pub const LANES: usize = 8;

/// Eight-lane [`pair_interaction_split`]: all inputs and outputs are flat
/// `[f64; LANES]` lane arrays so the LJ polynomial, the table lookup and
/// the Coulomb products autovectorize. Each lane computes exactly the
/// scalar expression tree on its own inputs, so lane `l` is bitwise
/// identical to `pair_interaction_split(r_sq[l], …)` (asserted by
/// `tests::lane_kernel_matches_scalar_bitwise`).
///
/// Callers handle rejected or padded lanes *outside* this function (the
/// stream compresses in-cutoff pairs into lanes and simply never reads the
/// padding outputs); every lane only requires `r_sq > 0`.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn pair_interaction_lanes(
    r_sq: &[f64; LANES],
    lj_a: &[f64; LANES],
    lj_b: &[f64; LANES],
    lj_shift: &[f64; LANES],
    qq: &[f64; LANES],
    coulomb: &CoulombTable,
    f_lj: &mut [f64; LANES],
    f_coul: &mut [f64; LANES],
    e_lj: &mut [f64; LANES],
    e_coul: &mut [f64; LANES],
) {
    for l in 0..LANES {
        let r2_inv = 1.0 / r_sq[l];
        let r6_inv = r2_inv * r2_inv * r2_inv;
        e_lj[l] = (lj_a[l] * r6_inv - lj_b[l]) * r6_inv - lj_shift[l];
        f_lj[l] = (12.0 * lj_a[l] * r6_inv - 6.0 * lj_b[l]) * r6_inv * r2_inv;
    }
    let (e, f) = coulomb.eval8(r_sq);
    for l in 0..LANES {
        e_coul[l] = COULOMB * qq[l] * e[l];
        f_coul[l] = COULOMB * qq[l] * f[l];
    }
}

/// Combined-force variant of [`pair_interaction_split`]:
/// `(force_over_r, lj_energy, coulomb_energy)`.
#[inline]
pub fn pair_interaction(
    r_sq: f64,
    lj_a: f64,
    lj_b: f64,
    lj_shift: f64,
    qq: f64,
    coulomb: &CoulombTable,
) -> (f64, f64, f64) {
    let (f_lj, f_coul, e_lj, e_coul) =
        pair_interaction_split(r_sq, lj_a, lj_b, lj_shift, qq, coulomb);
    (f_lj + f_coul, e_lj, e_coul)
}

/// Scalar reference kernel: nonbonded forces from a half neighbor list,
/// accumulated into `forces`, with the energy tallies returned. The engine
/// runs `crate::stream::nonbonded_forces_streamed`; this is the oracle it
/// is checked against.
///
/// Pairs beyond the true cutoff (the list range includes the skin) and fully
/// excluded pairs are skipped.
pub fn nonbonded_forces(
    system: &System,
    nl: &crate::neighbor::NeighborList,
    forces: &mut [Vec3],
) -> NonbondedEnergy {
    let cutoff_sq = system.nb.cutoff * system.nb.cutoff;
    let coulomb = CoulombTable::new(system.nb.ewald_alpha, cutoff_sq);
    let top = &system.topology;
    let ff = &system.forcefield;
    let mut out = NonbondedEnergy::default();

    for i in 0..system.n_atoms() {
        let pi = system.positions[i];
        let qi = top.charges[i];
        let ti = top.lj_types[i];
        let mut fi = Vec3::ZERO;
        for &j in nl.row(i) {
            let j = j as usize;
            let d = system.pbc.min_image(pi, system.positions[j]);
            let r_sq = d.norm_sq();
            if r_sq >= cutoff_sq || top.exclusions.is_excluded(i, j) {
                continue;
            }
            let lj = ff.lj(ti, top.lj_types[j]);
            let shift = lj_shift_at(lj.a, lj.b, cutoff_sq);
            let (f_lj, f_coul, e_lj, e_coul) =
                pair_interaction_split(r_sq, lj.a, lj.b, shift, qi * top.charges[j], &coulomb);
            let f_over_r = f_lj + f_coul;
            let f = d * f_over_r;
            fi += f;
            forces[j] -= f;
            out.lj += e_lj;
            out.coulomb_real += e_coul;
            out.virial += f_over_r * r_sq;
            out.virial_lj += f_lj * r_sq;
        }
        forces[i] += fi;
    }
    out
}

/// LJ energy at the cutoff, used for potential-shift truncation.
#[inline]
pub fn lj_shift_at(lj_a: f64, lj_b: f64, cutoff_sq: f64) -> f64 {
    let r6_inv = 1.0 / (cutoff_sq * cutoff_sq * cutoff_sq);
    (lj_a * r6_inv - lj_b) * r6_inv
}

/// Corrections that cancel the k-space contribution of *fully excluded*
/// pairs: each excluded pair (i,j) receives `−qᵢqⱼC·erf(αr)/r`, the exact
/// negative of what the reciprocal sum adds for that pair. The screened
/// part comes from the same table as the pair stream's:
/// `erf(αr)/r = 1/r − E(r²)`, and the force over r is
/// `−qᵢqⱼC·(1/(r·r²) − F(r²))`.
pub fn excluded_corrections(
    system: &System,
    coulomb: &CoulombTable,
    forces: &mut [Vec3],
) -> (f64, f64) {
    let top = &system.topology;
    let mut energy = 0.0;
    let mut virial = 0.0;
    for i in 0..system.n_atoms() {
        for &j in &top.exclusions.full[i] {
            let j = j as usize;
            if j <= i {
                continue; // each unordered pair once
            }
            let qq = top.charges[i] * top.charges[j];
            if qq == 0.0 {
                continue;
            }
            let d = system
                .pbc
                .min_image(system.positions[i], system.positions[j]);
            let r_sq = d.norm_sq();
            let r_inv = 1.0 / r_sq.sqrt();
            let (e_screened, f_screened) = coulomb.eval(r_sq);
            let e = -COULOMB * qq * (r_inv - e_screened);
            let f_over_r = -COULOMB * qq * (r_inv / r_sq - f_screened);
            let f = d * f_over_r;
            forces[i] += f;
            forces[j] -= f;
            energy += e;
            virial += f_over_r * r_sq;
        }
    }
    (energy, virial)
}

/// Scaled 1–4 corrections. The plain pair loop treats a 1–4 pair at full
/// strength (LJ via the list, Coulomb split across real + k-space), so the
/// correction subtracts `(1−s)` of each term to land on the scaled value.
///
/// Returns `(lj14, coulomb14, virial, virial_lj)` deltas.
pub fn scaled14_corrections(system: &System, forces: &mut [Vec3]) -> (f64, f64, f64, f64) {
    let top = &system.topology;
    let ff = &system.forcefield;
    let cutoff_sq = system.nb.cutoff * system.nb.cutoff;
    let s_lj = system.nb.scale14_lj;
    let s_el = system.nb.scale14_elec;
    let mut e_lj = 0.0;
    let mut e_coul = 0.0;
    let mut virial = 0.0;
    let mut virial_lj = 0.0;
    for &(i, j) in &top.exclusions.pairs14 {
        let (i, j) = (i as usize, j as usize);
        let d = system
            .pbc
            .min_image(system.positions[i], system.positions[j]);
        let r_sq = d.norm_sq();
        let r = r_sq.sqrt();

        // LJ correction applies only if the pair loop actually computed it
        // (inside the cutoff).
        let mut f_over_r = 0.0;
        let mut f_lj_part = 0.0;
        if r_sq < cutoff_sq {
            let lj = ff.lj(top.lj_types[i], top.lj_types[j]);
            let shift = lj_shift_at(lj.a, lj.b, cutoff_sq);
            let r2_inv = 1.0 / r_sq;
            let r6_inv = r2_inv * r2_inv * r2_inv;
            let e = (lj.a * r6_inv - lj.b) * r6_inv - shift;
            let f = (12.0 * lj.a * r6_inv - 6.0 * lj.b) * r6_inv * r2_inv;
            e_lj -= (1.0 - s_lj) * e;
            f_over_r -= (1.0 - s_lj) * f;
            f_lj_part -= (1.0 - s_lj) * f;
        }

        // Electrostatic correction: the pair currently contributes the full
        // 1/r (erfc in real space + erf in k-space); subtract (1−s)/r.
        let qq = top.charges[i] * top.charges[j];
        if qq != 0.0 {
            let e = COULOMB * qq / r;
            e_coul -= (1.0 - s_el) * e;
            f_over_r -= (1.0 - s_el) * COULOMB * qq / (r_sq * r);
        }

        let f = d * f_over_r;
        forces[i] += f;
        forces[j] -= f;
        virial += f_over_r * r_sq;
        virial_lj += f_lj_part * r_sq;
    }
    (e_lj, e_coul, virial, virial_lj)
}

/// Count of non-excluded pairs inside the true cutoff — the exact number of
/// PPIM pipeline evaluations one step performs. Used by the machine timing
/// model.
pub fn count_interactions(
    system: &System,
    nl: &crate::neighbor::NeighborList,
    exclusions: &Exclusions,
) -> u64 {
    let cutoff_sq = system.nb.cutoff * system.nb.cutoff;
    let mut n = 0u64;
    for i in 0..system.n_atoms() {
        let pi = system.positions[i];
        for &j in nl.row(i) {
            let j = j as usize;
            if system.pbc.dist_sq(pi, system.positions[j]) < cutoff_sq
                && !exclusions.is_excluded(i, j)
            {
                n += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forcefield::{ForceField, LjType, NonbondedSettings};
    use crate::neighbor::NeighborList;
    use crate::pbc::PbcBox;
    use crate::topology::Topology;
    use crate::vec3::v3;

    fn two_atom_system(r: f64, q0: f64, q1: f64) -> System {
        let topology = Topology {
            masses: vec![12.0; 2],
            charges: vec![q0, q1],
            lj_types: vec![0; 2],
            ..Default::default()
        };
        let ff = ForceField::new(vec![LjType {
            epsilon: 0.2,
            sigma: 3.0,
        }]);
        System::new(
            topology,
            ff,
            NonbondedSettings::default(),
            PbcBox::cubic(40.0),
            vec![v3(5.0, 5.0, 5.0), v3(5.0 + r, 5.0, 5.0)],
        )
    }

    fn forces_of(system: &System) -> (Vec<Vec3>, NonbondedEnergy) {
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

    #[test]
    fn newtons_third_law() {
        let s = two_atom_system(3.2, 0.5, -0.5);
        let (f, _) = forces_of(&s);
        assert!((f[0] + f[1]).norm() < 1e-12);
    }

    #[test]
    fn force_is_negative_energy_gradient() {
        // Central difference on the pair energy vs the analytic force.
        for &r in &[3.0, 3.4, 4.5, 6.0, 8.0] {
            let h = 1e-6;
            let e = |r: f64| {
                let s = two_atom_system(r, 0.4, -0.3);
                let (_, en) = forces_of(&s);
                en.total()
            };
            let dedr = (e(r + h) - e(r - h)) / (2.0 * h);
            let s = two_atom_system(r, 0.4, -0.3);
            let (f, _) = forces_of(&s);
            // Force on atom 1 along +x should be −dE/dr.
            assert!(
                (f[1].x + dedr).abs() < 1e-5 * dedr.abs().max(1.0),
                "r={r}: f={}, -dE/dr={}",
                f[1].x,
                -dedr
            );
        }
    }

    #[test]
    fn energy_continuous_at_cutoff() {
        let eps = 1e-4;
        let just_in = two_atom_system(9.0 - eps, 0.3, 0.3);
        let just_out = two_atom_system(9.0 + eps, 0.3, 0.3);
        let (_, ein) = forces_of(&just_in);
        let (_, eout) = forces_of(&just_out);
        // Outside the cutoff nothing is computed.
        assert_eq!(eout.total(), 0.0);
        // Inside, the shifted LJ and the erfc-screened Coulomb are both tiny.
        assert!(ein.lj.abs() < 1e-6, "lj = {}", ein.lj);
        assert!(ein.coulomb_real.abs() < 1e-3, "coul = {}", ein.coulomb_real);
    }

    #[test]
    fn repulsive_at_short_range_attractive_at_lj_tail() {
        let close = two_atom_system(2.5, 0.0, 0.0);
        let (f, _) = forces_of(&close);
        assert!(f[1].x > 0.0, "should push apart at r < σ");
        let apart = two_atom_system(4.5, 0.0, 0.0);
        let (f, _) = forces_of(&apart);
        assert!(f[1].x < 0.0, "should pull together past the minimum");
    }

    #[test]
    fn coulomb_sign_conventions() {
        let like = two_atom_system(4.0, 0.5, 0.5);
        let (f, e) = forces_of(&like);
        assert!(e.coulomb_real > 0.0);
        assert!(f[1].x > 0.0, "like charges repel");
        let unlike = two_atom_system(4.0, 0.5, -0.5);
        let (f, e) = forces_of(&unlike);
        assert!(e.coulomb_real < 0.0);
        assert!(f[1].x < 0.0, "unlike charges attract");
    }

    #[test]
    fn excluded_pair_skipped_then_corrected() {
        let mut s = two_atom_system(3.0, 0.4, -0.4);
        s.topology.bonds.push(crate::topology::Bond {
            i: 0,
            j: 1,
            k: 100.0,
            r0: 3.0,
        });
        s.topology.build_exclusions();
        let (f, e) = forces_of(&s);
        assert_eq!(e.total(), 0.0, "excluded pair must not contribute");
        assert_eq!(f[0], Vec3::ZERO);
        // The k-space compensation is nonzero and attractive-compensating.
        let mut fc = vec![Vec3::ZERO; 2];
        let (e_corr, _) = excluded_corrections(&s, s.pair_table().coulomb(), &mut fc);
        // qq < 0 so −qqC·erf/r > 0.
        assert!(e_corr > 0.0);
        assert!((fc[0] + fc[1]).norm() < 1e-12);
    }

    #[test]
    fn scaled14_reduces_interaction() {
        let mut s = two_atom_system(4.0, 0.3, 0.3);
        s.topology.exclusions.full = vec![vec![], vec![]];
        s.topology.exclusions.pairs14 = vec![(0, 1)];
        let mut f = vec![Vec3::ZERO; 2];
        let (lj14, coul14, _, _) = scaled14_corrections(&s, &mut f);
        // Corrections subtract: LJ attraction at 4.0 Å means e_lj < 0, so
        // subtracting half of it is positive.
        assert!(lj14 != 0.0);
        assert!(
            coul14 < 0.0,
            "positive charges: subtracting (1-s)·E means negative delta"
        );
        assert!((f[0] + f[1]).norm() < 1e-12);
    }

    #[test]
    fn virial_sign_for_pure_repulsion() {
        let s = two_atom_system(2.5, 0.5, 0.5);
        let (_, e) = forces_of(&s);
        assert!(e.virial > 0.0, "repulsive pair has positive virial");
    }

    #[test]
    fn lane_kernel_matches_scalar_bitwise() {
        // Every lane of the batched kernel must reproduce the scalar
        // expression tree bit for bit — this is what lets the streamed
        // path switch between the two without perturbing trajectories.
        let r_sq = [6.25, 9.61, 16.0, 26.01, 42.25, 60.84, 79.21, 80.9];
        let lj_a = [5.0e5, 3.1e5, 0.0, 7.7e4, 1.2e6, 9.9e5, 4.4e5, 2.0e5];
        let lj_b = [600.0, 420.0, 0.0, 95.0, 1.1e3, 870.0, 510.0, 330.0];
        let qq = [0.1681, -0.3469, 0.0, 0.2891, -0.1681, 0.0841, -0.41, 0.17];
        let cutoff_sq = 81.0;
        let coulomb = CoulombTable::new(0.32, cutoff_sq);
        let mut shift = [0.0; LANES];
        for l in 0..LANES {
            shift[l] = lj_shift_at(lj_a[l], lj_b[l], cutoff_sq);
        }
        let (mut f_lj, mut f_coul) = ([0.0; LANES], [0.0; LANES]);
        let (mut e_lj, mut e_coul) = ([0.0; LANES], [0.0; LANES]);
        pair_interaction_lanes(
            &r_sq,
            &lj_a,
            &lj_b,
            &shift,
            &qq,
            &coulomb,
            &mut f_lj,
            &mut f_coul,
            &mut e_lj,
            &mut e_coul,
        );
        for l in 0..LANES {
            let (sf_lj, sf_coul, se_lj, se_coul) =
                pair_interaction_split(r_sq[l], lj_a[l], lj_b[l], shift[l], qq[l], &coulomb);
            assert_eq!(f_lj[l].to_bits(), sf_lj.to_bits(), "f_lj lane {l}");
            assert_eq!(f_coul[l].to_bits(), sf_coul.to_bits(), "f_coul lane {l}");
            assert_eq!(e_lj[l].to_bits(), se_lj.to_bits(), "e_lj lane {l}");
            assert_eq!(e_coul[l].to_bits(), se_coul.to_bits(), "e_coul lane {l}");
        }
    }

    #[test]
    fn interaction_count_matches_kernel_loop() {
        let s = two_atom_system(4.0, 0.1, 0.1);
        let nl = NeighborList::build(&s.pbc, &s.positions, s.nb.cutoff, s.nb.skin);
        assert_eq!(count_interactions(&s, &nl, &s.topology.exclusions), 1);
        let far = two_atom_system(15.0, 0.1, 0.1);
        let nl = NeighborList::build(&far.pbc, &far.positions, far.nb.cutoff, far.nb.skin);
        assert_eq!(count_interactions(&far, &nl, &far.topology.exclusions), 0);
    }
}
