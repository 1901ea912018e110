//! Synthetic system builders.
//!
//! No force-field parameter files or experimental structures ship with this
//! repository, so the paper's benchmark systems are replaced by synthetic
//! equivalents with matched *machine-visible* statistics: atom count, number
//! density, charge structure, bonded-term counts, and constraint counts —
//! the quantities that determine the work per timestep on every subsystem
//! of the machine (see DESIGN.md §2 for the substitution argument).
//!
//! * [`water_box`] — rigid TIP3P-style water on a jittered lattice;
//! * [`lj_fluid`] — argon-like neutral fluid (no k-space work);
//! * [`solvated_protein`] — a bonded bead chain ("protein mimic") threaded
//!   through a spherical region of the lattice, solvated in water;
//! * benchmark constructors matching the paper's systems by atom count:
//!   [`dhfr_benchmark`] (23,558 atoms — the headline 85 µs/day system),
//!   [`apoa1_benchmark`] (92,224), and [`scaled_benchmark`] for the
//!   million-atom capacity points.

use crate::forcefield::{ForceField, LjType, NonbondedSettings};
use crate::pbc::PbcBox;
use crate::settle::SettleParams;
use crate::system::System;
use crate::topology::{Angle, Bond, Dihedral, Topology, UreyBradley};
use crate::vec3::{v3, Vec3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// TIP3P-style partial charges.
pub const Q_WATER_O: f64 = -0.834;
pub const Q_WATER_H: f64 = 0.417;
/// Water number density 0.0334 molecules/Å³ → lattice constant.
pub const WATER_LATTICE: f64 = 3.104;

/// LJ type indices into [`ForceField::standard`].
pub const TYPE_WATER_O: u32 = 0;
pub const TYPE_WATER_H: u32 = 1;
pub const TYPE_PROTEIN_BEAD: u32 = 2;

/// A neutral cloud of `n` point charges uniformly scattered in a cubic box
/// of edge `l` — the minimal GSE test workload (no LJ types, topology, or
/// constraints). Charges alternate ±q with magnitudes cycling over a few
/// values; every 7th is zero so charged-atom compaction paths are
/// exercised; the final charge absorbs the remainder so the cloud is
/// exactly neutral. Positions deliberately include points within a stencil
/// reach of the periodic seam.
pub fn charge_cloud(n: usize, l: f64, seed: u64) -> (PbcBox, Vec<Vec3>, Vec<f64>) {
    let pbc = PbcBox::cubic(l);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut positions = Vec::with_capacity(n);
    let mut charges = Vec::with_capacity(n);
    let mut net = 0.0;
    for i in 0..n {
        positions.push(v3(
            rng.gen::<f64>() * l,
            rng.gen::<f64>() * l,
            rng.gen::<f64>() * l,
        ));
        let q = if i + 1 == n {
            -net // neutralize
        } else if i % 7 == 3 {
            0.0
        } else {
            let mag = [0.417, 0.834, 0.25][i % 3];
            if i % 2 == 0 {
                mag
            } else {
                -mag
            }
        };
        net += q;
        charges.push(q);
    }
    (pbc, positions, charges)
}

/// Nonbonded settings adapted to the box: production values where the box
/// allows, shrunk cutoff (with α rescaled to keep `α·rc ≈ 3`) for small
/// boxes so the minimum-image requirement holds.
pub fn adaptive_settings(pbc: &PbcBox) -> NonbondedSettings {
    let mut s = NonbondedSettings::default();
    let max_range = pbc.min_edge() / 2.0;
    if s.cutoff + s.skin > max_range {
        s.skin = (0.1 * max_range).min(1.0);
        s.cutoff = max_range - s.skin - 1e-9;
        s.ewald_alpha = 3.0 / s.cutoff;
    }
    s
}

/// Place one rigid water with its center of mass near `site`, orientation
/// alternating with lattice parity (locally antiferroelectric, which avoids
/// pathological H–H contacts on the unminimized lattice).
fn place_water(
    top: &mut Topology,
    positions: &mut Vec<Vec3>,
    site: Vec3,
    parity: bool,
    jitter: Vec3,
) {
    let p = SettleParams::tip3p();
    let o = top.masses.len();
    let sign = if parity { 1.0 } else { -1.0 };
    let center = site + jitter;
    positions.push(center + v3(0.0, sign * p.ra, 0.0));
    positions.push(center + v3(-p.rc, -sign * p.rb, 0.0));
    positions.push(center + v3(p.rc, -sign * p.rb, 0.0));
    top.masses.extend_from_slice(&[p.m_o, p.m_h, p.m_h]);
    top.charges
        .extend_from_slice(&[Q_WATER_O, Q_WATER_H, Q_WATER_H]);
    top.lj_types
        .extend_from_slice(&[TYPE_WATER_O, TYPE_WATER_H, TYPE_WATER_H]);
    top.waters.push([o, o + 1, o + 2]);
}

/// A periodic box of `nx × ny × nz` rigid waters on a jittered lattice.
pub fn water_box(nx: usize, ny: usize, nz: usize, seed: u64) -> System {
    let pbc = PbcBox::new(
        nx as f64 * WATER_LATTICE,
        ny as f64 * WATER_LATTICE,
        nz as f64 * WATER_LATTICE,
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut top = Topology::default();
    let mut positions = Vec::with_capacity(nx * ny * nz * 3);
    for ix in 0..nx {
        for iy in 0..ny {
            for iz in 0..nz {
                let site = v3(
                    (ix as f64 + 0.5) * WATER_LATTICE,
                    (iy as f64 + 0.5) * WATER_LATTICE,
                    (iz as f64 + 0.5) * WATER_LATTICE,
                );
                let jitter = v3(
                    (rng.gen::<f64>() - 0.5) * 0.2,
                    (rng.gen::<f64>() - 0.5) * 0.2,
                    (rng.gen::<f64>() - 0.5) * 0.2,
                );
                place_water(
                    &mut top,
                    &mut positions,
                    site,
                    (ix + iy + iz) % 2 == 0,
                    jitter,
                );
            }
        }
    }
    top.build_exclusions();
    let nb = adaptive_settings(&pbc);
    System::new(top, ForceField::standard(), nb, pbc, positions)
}

/// A water **slab**: the box is `nx × ny × nz_total` lattice cells but only
/// the lower `nz_filled` layers hold water — a liquid/vacuum interface.
/// Physically this is a surface simulation; for the machine experiments it
/// is the canonical *load-imbalanced* workload (nodes owning vacuum idle
/// while interface nodes work).
pub fn water_slab(nx: usize, ny: usize, nz_filled: usize, nz_total: usize, seed: u64) -> System {
    assert!(nz_filled >= 1 && nz_filled <= nz_total);
    let pbc = PbcBox::new(
        nx as f64 * WATER_LATTICE,
        ny as f64 * WATER_LATTICE,
        nz_total as f64 * WATER_LATTICE,
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut top = Topology::default();
    let mut positions = Vec::with_capacity(nx * ny * nz_filled * 3);
    for ix in 0..nx {
        for iy in 0..ny {
            for iz in 0..nz_filled {
                let site = v3(
                    (ix as f64 + 0.5) * WATER_LATTICE,
                    (iy as f64 + 0.5) * WATER_LATTICE,
                    (iz as f64 + 0.5) * WATER_LATTICE,
                );
                let jitter = v3(
                    (rng.gen::<f64>() - 0.5) * 0.2,
                    (rng.gen::<f64>() - 0.5) * 0.2,
                    (rng.gen::<f64>() - 0.5) * 0.2,
                );
                place_water(
                    &mut top,
                    &mut positions,
                    site,
                    (ix + iy + iz) % 2 == 0,
                    jitter,
                );
            }
        }
    }
    top.build_exclusions();
    let nb = adaptive_settings(&pbc);
    System::new(top, ForceField::standard(), nb, pbc, positions)
}

/// An argon-like Lennard-Jones fluid: `n` atoms at reduced density
/// `rho_star = ρσ³` (0.8 ≈ liquid argon).
pub fn lj_fluid(n: usize, rho_star: f64, seed: u64) -> System {
    let sigma: f64 = 3.405;
    let volume = n as f64 * sigma.powi(3) / rho_star;
    let l = volume.cbrt();
    let pbc = PbcBox::cubic(l);
    let per_side = (n as f64).cbrt().ceil() as usize;
    let a = l / per_side as f64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut positions = Vec::with_capacity(n);
    'fill: for ix in 0..per_side {
        for iy in 0..per_side {
            for iz in 0..per_side {
                if positions.len() == n {
                    break 'fill;
                }
                positions.push(v3(
                    (ix as f64 + 0.5) * a + (rng.gen::<f64>() - 0.5) * 0.1,
                    (iy as f64 + 0.5) * a + (rng.gen::<f64>() - 0.5) * 0.1,
                    (iz as f64 + 0.5) * a + (rng.gen::<f64>() - 0.5) * 0.1,
                ));
            }
        }
    }
    let mut top = Topology {
        masses: vec![39.948; n],
        charges: vec![0.0; n],
        lj_types: vec![0; n],
        ..Default::default()
    };
    top.build_exclusions();
    let ff = ForceField::new(vec![LjType {
        epsilon: 0.238,
        sigma,
    }]);
    let mut nb = adaptive_settings(&pbc);
    nb.cutoff = nb.cutoff.min(2.5 * sigma);
    System::new(top, ff, nb, pbc, positions)
}

/// Count of bonded terms produced for a protein mimic, for reporting.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProteinStats {
    pub beads: usize,
    pub bonds: usize,
    pub angles: usize,
    pub dihedrals: usize,
    pub segments: usize,
}

/// A solvated "protein": `protein_beads` bonded beads in a spherical region
/// at the box center, surrounded by `n_waters` rigid waters. All bonded
/// equilibrium values are taken from the built geometry so the initial
/// configuration carries no bonded strain.
pub fn solvated_protein(protein_beads: usize, n_waters: usize, seed: u64) -> System {
    let sites_needed = protein_beads + n_waters;
    // Near-cubic lattice dimensions with at least `sites_needed` sites.
    let side = (sites_needed as f64).cbrt();
    let nx = side.ceil() as usize;
    let ny = ((sites_needed as f64 / nx as f64).sqrt()).ceil() as usize;
    let nz = sites_needed.div_ceil(nx * ny);
    let pbc = PbcBox::new(
        nx as f64 * WATER_LATTICE,
        ny as f64 * WATER_LATTICE,
        nz as f64 * WATER_LATTICE,
    );
    let center = pbc.lengths() / 2.0;
    let mut rng = StdRng::seed_from_u64(seed);

    // Enumerate lattice sites, sorted by distance to center so the protein
    // occupies the innermost sphere.
    let mut sites: Vec<(usize, usize, usize)> = Vec::with_capacity(nx * ny * nz);
    for ix in 0..nx {
        for iy in 0..ny {
            for iz in 0..nz {
                sites.push((ix, iy, iz));
            }
        }
    }
    let site_pos = |&(ix, iy, iz): &(usize, usize, usize)| {
        v3(
            (ix as f64 + 0.5) * WATER_LATTICE,
            (iy as f64 + 0.5) * WATER_LATTICE,
            (iz as f64 + 0.5) * WATER_LATTICE,
        )
    };
    sites.sort_by(|a, b| {
        let da = (site_pos(a) - center).norm_sq();
        let db = (site_pos(b) - center).norm_sq();
        da.partial_cmp(&db).unwrap().then(a.cmp(b))
    });
    assert!(sites.len() >= sites_needed, "lattice too small");

    let mut top = Topology::default();
    let mut positions = Vec::new();

    // Protein: innermost sites, re-ordered into a serpentine scan within the
    // sphere so consecutive beads are usually lattice neighbors.
    let mut protein_sites: Vec<(usize, usize, usize)> = sites[..protein_beads].to_vec();
    protein_sites.sort_by_key(|&(ix, iy, iz)| {
        // Boustrophedon: snake along z, alternate direction by (x+y) parity.
        let zz = if (ix + iy) % 2 == 0 { iz } else { nz - 1 - iz };
        let yy = if ix % 2 == 0 { iy } else { ny - 1 - iy };
        (ix, yy, zz)
    });
    for &s in &protein_sites {
        positions.push(
            site_pos(&s)
                + v3(
                    (rng.gen::<f64>() - 0.5) * 0.1,
                    (rng.gen::<f64>() - 0.5) * 0.1,
                    (rng.gen::<f64>() - 0.5) * 0.1,
                ),
        );
        top.masses.push(12.011);
        // Alternating ±0.25 in consecutive pairs keeps every segment and the
        // whole chain neutral.
        let q = match top.charges.len() % 2 {
            0 => 0.25,
            _ => -0.25,
        };
        top.charges.push(q);
        top.lj_types.push(TYPE_PROTEIN_BEAD);
    }
    if protein_beads % 2 == 1 {
        // Odd bead count: zero the last charge to keep neutrality.
        *top.charges.last_mut().unwrap() = 0.0;
    }

    // Bond consecutive beads when they are lattice neighbors; chain breaks
    // start new segments (a multi-chain protein).
    let max_bond = 1.5 * WATER_LATTICE;
    let mut segments = 1usize;
    for i in 1..protein_beads {
        let d = pbc.min_image(positions[i], positions[i - 1]).norm();
        if d < max_bond {
            top.bonds.push(Bond {
                i: i - 1,
                j: i,
                k: 100.0,
                r0: d,
            });
        } else {
            segments += 1;
        }
    }
    // Angles and dihedrals over consecutive bonded triples/quadruples, with
    // equilibrium values from the built geometry.
    let bonded: std::collections::BTreeSet<(usize, usize)> =
        top.bonds.iter().map(|b| (b.i, b.j)).collect();
    let linked = |i: usize, j: usize| bonded.contains(&(i, j));
    for i in 0..protein_beads.saturating_sub(2) {
        if linked(i, i + 1) && linked(i + 1, i + 2) {
            let theta0 = bond_angle(&pbc, positions[i], positions[i + 1], positions[i + 2]);
            top.angles.push(Angle {
                i,
                j: i + 1,
                k: i + 2,
                k_theta: 20.0,
                theta0,
            });
            // CHARMM-style Urey–Bradley 1–3 spring on each angle, at the
            // built geometry (no initial strain).
            let r13 = pbc.min_image(positions[i], positions[i + 2]).norm();
            top.urey_bradleys.push(UreyBradley {
                i,
                k_atom: i + 2,
                k_ub: 5.0,
                r0: r13,
            });
        }
    }
    for i in 0..protein_beads.saturating_sub(3) {
        if linked(i, i + 1) && linked(i + 1, i + 2) && linked(i + 2, i + 3) {
            top.dihedrals.extend(bead_dihedral(&pbc, &positions, i));
        }
    }
    let _ = segments;

    // Waters fill the next `n_waters` sites.
    for (k, s) in sites[protein_beads..protein_beads + n_waters]
        .iter()
        .enumerate()
    {
        let jitter = v3(
            (rng.gen::<f64>() - 0.5) * 0.2,
            (rng.gen::<f64>() - 0.5) * 0.2,
            (rng.gen::<f64>() - 0.5) * 0.2,
        );
        place_water(&mut top, &mut positions, site_pos(s), k % 2 == 0, jitter);
    }

    top.build_exclusions();
    let nb = adaptive_settings(&pbc);
    System::new(top, ForceField::standard(), nb, pbc, positions)
}

/// Angle `a–b–c` at `b`, radians in `[0, π]`.
fn bond_angle(pbc: &PbcBox, a: Vec3, b: Vec3, c: Vec3) -> f64 {
    let rab = pbc.min_image(a, b);
    let rcb = pbc.min_image(c, b);
    (rab.dot(rcb) / (rab.norm() * rcb.norm()))
        .clamp(-1.0, 1.0)
        .acos()
}

/// Built-geometry range of both bond angles a bead dihedral may span.
const DIHEDRAL_ANGLE_RANGE: std::ops::RangeInclusive<f64> =
    (20.0 * std::f64::consts::PI / 180.0)..=(160.0 * std::f64::consts::PI / 180.0);

/// The torsion over beads `i..i+4` at their built geometry, or `None` when
/// either bond angle it spans lies outside [`DIHEDRAL_ANGLE_RANGE`]. The
/// torsion force `n1·g|b2|/|n1|²` grows as 1/sin θ of those angles while
/// its energy stays finite, and straight lattice runs are nearly linear: on
/// DHFR 2,188 of 2,369 candidate dihedrals cross an angle above 160°, and
/// one of them drove a preparation run to a 34,000 kcal/mol/Å force.
fn bead_dihedral(pbc: &PbcBox, positions: &[Vec3], i: usize) -> Option<Dihedral> {
    let p = &positions[i..i + 4];
    if !DIHEDRAL_ANGLE_RANGE.contains(&bond_angle(pbc, p[0], p[1], p[2]))
        || !DIHEDRAL_ANGLE_RANGE.contains(&bond_angle(pbc, p[1], p[2], p[3]))
    {
        return None;
    }
    let phi0 = crate::bonded::dihedral_angle(pbc, p[0], p[1], p[2], p[3]);
    // E = k(1 + cos(φ − δ)) is minimized at φ0 when δ = φ0 − π.
    Some(Dihedral {
        i,
        j: i + 1,
        k: i + 2,
        l: i + 3,
        k_phi: 0.8,
        n: 1,
        delta: phi0 - std::f64::consts::PI,
    })
}

/// Specification of one paper benchmark system.
#[derive(Clone, Copy, Debug)]
pub struct BenchmarkSpec {
    pub name: &'static str,
    pub total_atoms: usize,
    pub protein_beads: usize,
    pub n_waters: usize,
}

impl BenchmarkSpec {
    /// Construct the system.
    pub fn build(&self, seed: u64) -> System {
        let s = solvated_protein(self.protein_beads, self.n_waters, seed);
        debug_assert_eq!(s.n_atoms(), self.total_atoms);
        s
    }
}

/// The paper's headline system: DHFR / joint AMBER-CHARMM benchmark,
/// 23,558 atoms (protein-equivalent beads + rigid waters).
pub const DHFR: BenchmarkSpec = BenchmarkSpec {
    name: "DHFR (23.6k atoms)",
    total_atoms: 23_558,
    protein_beads: 2_489,
    n_waters: 7_023, // 2489 + 3·7023 = 23,558
};

/// ApoA1-scale system, 92,224 atoms.
pub const APOA1: BenchmarkSpec = BenchmarkSpec {
    name: "ApoA1 (92.2k atoms)",
    total_atoms: 92_224,
    protein_beads: 6_040,
    n_waters: 28_728, // 6040 + 3·28728 = 92,224
};

/// Build the DHFR-scale benchmark system.
pub fn dhfr_benchmark(seed: u64) -> System {
    DHFR.build(seed)
}

/// Build the ApoA1-scale benchmark system.
pub fn apoa1_benchmark(seed: u64) -> System {
    APOA1.build(seed)
}

/// A capacity benchmark of approximately `target_atoms` (rounded to whole
/// waters around a 10%-of-atoms protein core), for the million-atom points.
pub fn scaled_benchmark(target_atoms: usize, seed: u64) -> System {
    let protein_beads = (target_atoms / 10) & !1; // even, ~10%
    let n_waters = (target_atoms - protein_beads) / 3;
    solvated_protein(protein_beads, n_waters, seed)
}

/// Atom count a [`scaled_benchmark`] call will actually produce.
pub fn scaled_benchmark_atoms(target_atoms: usize) -> usize {
    let protein_beads = (target_atoms / 10) & !1;
    let n_waters = (target_atoms - protein_beads) / 3;
    protein_beads + 3 * n_waters
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn water_box_counts_and_neutrality() {
        let s = water_box(3, 3, 3, 1);
        assert_eq!(s.n_atoms(), 81);
        assert_eq!(s.topology.waters.len(), 27);
        assert!(s.topology.total_charge().abs() < 1e-10);
        // Density near real water.
        let density = 27.0 / s.pbc.volume();
        assert!((density - 0.0334).abs() < 0.002, "water density {density}");
    }

    #[test]
    fn water_box_geometry_is_rigid_tip3p() {
        let s = water_box(2, 2, 2, 3);
        let p = SettleParams::tip3p();
        for w in &s.topology.waters {
            let d_oh1 = s.pbc.min_image(s.positions[w[0]], s.positions[w[1]]).norm();
            let d_oh2 = s.pbc.min_image(s.positions[w[0]], s.positions[w[2]]).norm();
            let d_hh = s.pbc.min_image(s.positions[w[1]], s.positions[w[2]]).norm();
            assert!((d_oh1 - p.d_oh).abs() < 1e-9);
            assert!((d_oh2 - p.d_oh).abs() < 1e-9);
            assert!((d_hh - p.d_hh).abs() < 1e-9);
        }
    }

    #[test]
    fn water_box_settings_respect_small_boxes() {
        let s = water_box(3, 3, 3, 1);
        assert!(s.nb.cutoff + s.nb.skin <= s.pbc.min_edge() / 2.0);
        // α·rc stays near 3 so the real-space tail is negligible.
        assert!((s.nb.ewald_alpha * s.nb.cutoff - 3.0).abs() < 0.5);
    }

    #[test]
    fn water_slab_leaves_vacuum() {
        let s = water_slab(4, 4, 3, 6, 1);
        assert_eq!(s.topology.waters.len(), 48);
        // All atoms in the lower half of the box.
        let zmax = s.positions.iter().map(|p| p.z).fold(0.0, f64::max);
        assert!(zmax < s.pbc.lz * 0.55, "zmax {zmax} vs box {}", s.pbc.lz);
        assert!(s.topology.total_charge().abs() < 1e-10);
    }

    #[test]
    fn lj_fluid_density() {
        let s = lj_fluid(256, 0.8, 2);
        assert_eq!(s.n_atoms(), 256);
        let rho_star = 256.0 / s.pbc.volume() * 3.405f64.powi(3);
        assert!((rho_star - 0.8).abs() < 1e-6);
        assert!(s.topology.charges.iter().all(|&q| q == 0.0));
    }

    #[test]
    fn solvated_protein_structure() {
        let s = solvated_protein(100, 300, 5);
        assert_eq!(s.n_atoms(), 100 + 900);
        assert!(s.topology.total_charge().abs() < 1e-10);
        assert!(!s.topology.bonds.is_empty());
        assert!(!s.topology.angles.is_empty());
        assert!(!s.topology.dihedrals.is_empty());
        assert_eq!(s.topology.waters.len(), 300);
        // Bonds are within the lattice-neighbor limit.
        for b in &s.topology.bonds {
            assert!(b.r0 < 1.5 * WATER_LATTICE);
            // Equilibrium at built geometry: bond currently unstrained.
            let d = s.pbc.min_image(s.positions[b.i], s.positions[b.j]).norm();
            assert!((d - b.r0).abs() < 1e-9);
        }
    }

    #[test]
    fn near_linear_bead_chain_gets_no_dihedral() {
        let pbc = PbcBox::cubic(40.0);
        // Beads 3.8 Å apart: 110° at bead 1, `deg` at bead 2.
        let chain = |deg: f64| {
            let (a, t) = (110f64.to_radians(), deg.to_radians());
            let p1 = v3(10.0, 10.0, 10.0);
            let p2 = p1 + v3(3.8, 0.0, 0.0);
            vec![
                p1 + v3(a.cos(), a.sin(), 0.0) * 3.8,
                p1,
                p2,
                p2 + v3(-t.cos(), 0.0, t.sin()) * 3.8,
            ]
        };
        let angle = |p: &[Vec3]| bond_angle(&pbc, p[1], p[2], p[3]).to_degrees();
        assert!((angle(&chain(179.0)) - 179.0).abs() < 1e-9);
        assert!(bead_dihedral(&pbc, &chain(179.0), 0).is_none());
        assert!(bead_dihedral(&pbc, &chain(15.0), 0).is_none());
        assert!(bead_dihedral(&pbc, &chain(110.0), 0).is_some());
        // Every dihedral a builder emits spans two angles inside the range.
        let s = solvated_protein(100, 300, 5);
        for d in &s.topology.dihedrals {
            let p = [d.i, d.j, d.k, d.l].map(|a| s.positions[a]);
            assert!(DIHEDRAL_ANGLE_RANGE.contains(&bond_angle(&s.pbc, p[0], p[1], p[2])));
            assert!(DIHEDRAL_ANGLE_RANGE.contains(&bond_angle(&s.pbc, p[1], p[2], p[3])));
        }
    }

    #[test]
    fn protein_beads_are_at_sphere_center() {
        let s = solvated_protein(64, 400, 6);
        let center = s.pbc.lengths() / 2.0;
        let mean_protein: f64 = (0..64)
            .map(|i| (s.positions[i] - center).norm())
            .sum::<f64>()
            / 64.0;
        let mean_water_o: f64 = s
            .topology
            .waters
            .iter()
            .map(|w| (s.positions[w[0]] - center).norm())
            .sum::<f64>()
            / 400.0;
        assert!(
            mean_protein < mean_water_o,
            "protein {mean_protein} should be more central than water {mean_water_o}"
        );
    }

    #[test]
    fn dhfr_spec_matches_paper_atom_count() {
        assert_eq!(DHFR.protein_beads + 3 * DHFR.n_waters, 23_558);
        assert_eq!(APOA1.protein_beads + 3 * APOA1.n_waters, 92_224);
    }

    #[test]
    fn dhfr_benchmark_builds() {
        let s = dhfr_benchmark(7);
        assert_eq!(s.n_atoms(), 23_558);
        assert!(s.topology.total_charge().abs() < 1e-9);
        // Box edge near the real DHFR benchmark box (62.2 Å).
        assert!((s.pbc.lx - 62.2).abs() < 8.0, "lx = {}", s.pbc.lx);
        // Production cutoff fits.
        assert_eq!(s.nb.cutoff, 9.0);
    }

    #[test]
    fn scaled_benchmark_accounting() {
        for target in [100_000usize, 1_000_000] {
            let got = scaled_benchmark_atoms(target);
            assert!(
                (got as i64 - target as i64).unsigned_abs() < 5,
                "{target} -> {got}"
            );
        }
        let s = scaled_benchmark(30_000, 8);
        assert_eq!(s.n_atoms(), scaled_benchmark_atoms(30_000));
    }

    #[test]
    fn builders_are_seeded_deterministic() {
        let a = water_box(3, 3, 3, 42);
        let b = water_box(3, 3, 3, 42);
        assert_eq!(a.positions, b.positions);
        let c = water_box(3, 3, 3, 43);
        assert_ne!(a.positions, c.positions);
    }
}
