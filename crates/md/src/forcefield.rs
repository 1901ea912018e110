//! Lennard-Jones parameter tables and nonbonded interaction settings.

use crate::erfc::CoulombTable;
use serde::{Deserialize, Serialize};

/// Per-type Lennard-Jones parameters: well depth ε (kcal/mol) and
/// zero-crossing diameter σ (Å).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LjType {
    pub epsilon: f64,
    pub sigma: f64,
}

/// Precomputed pairwise LJ coefficients: `E = a/r¹² − b/r⁶` with
/// `a = 4εσ¹²`, `b = 4εσ⁶`.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct LjPair {
    pub a: f64,
    pub b: f64,
}

impl LjPair {
    fn from_eps_sigma(eps: f64, sigma: f64) -> Self {
        let s6 = sigma.powi(6);
        LjPair {
            a: 4.0 * eps * s6 * s6,
            b: 4.0 * eps * s6,
        }
    }
}

/// Nonbonded model settings shared by the serial engine and the machine
/// co-simulator.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct NonbondedSettings {
    /// Range-limited (real-space) cutoff, Å.
    pub cutoff: f64,
    /// Verlet-list skin, Å; lists are rebuilt when an atom moves skin/2.
    pub skin: f64,
    /// Ewald splitting parameter α, Å⁻¹.
    pub ewald_alpha: f64,
    /// LJ scaling applied to 1–4 pairs (AMBER convention 0.5).
    pub scale14_lj: f64,
    /// Electrostatic scaling applied to 1–4 pairs (AMBER convention 1/1.2).
    pub scale14_elec: f64,
}

impl Default for NonbondedSettings {
    fn default() -> Self {
        NonbondedSettings {
            cutoff: 9.0,
            skin: 1.0,
            // erfc(α·rc) ≈ 1e-5 at α = 0.35, rc = 9 Å — a production-grade
            // splitting consistent with Anton's short cutoffs.
            ewald_alpha: 0.35,
            scale14_lj: 0.5,
            scale14_elec: 1.0 / 1.2,
        }
    }
}

/// One entry of a [`PairTable`]: the combined LJ coefficients plus the
/// cutoff shift, i.e. everything the pair kernel needs that depends only on
/// the (type, type) pair. Baking the shift in here removes the per-pair
/// `lj_shift_at` recomputation from the inner loop — the same move Anton 2's
/// HTIS makes when it resolves all per-pair parameters before streaming
/// atom pairs into the PPIM pipelines.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct PairEntry {
    /// `4εσ¹²`.
    pub a: f64,
    /// `4εσ⁶`.
    pub b: f64,
    /// LJ energy at the cutoff (potential-shift truncation).
    pub shift: f64,
}

/// Fully resolved pair parameters for a fixed cutoff and Ewald splitting:
/// the LJ lookup a streaming kernel does instead of calling
/// [`ForceField::lj`] and `lj_shift_at` per pair per step, and the
/// r²-indexed table of the screened Coulomb functions.
#[derive(Clone, Debug)]
pub struct PairTable {
    n_types: usize,
    entries: Vec<PairEntry>,
    coulomb: CoulombTable,
    /// Squared cutoff the shifts were baked for.
    pub cutoff_sq: f64,
}

impl PairTable {
    /// Bake the combined-parameter table of `ff` together with the
    /// potential-shift at `cutoff` (Å), and the Coulomb table for splitting
    /// parameter `alpha` (Å⁻¹) over the same cutoff.
    pub fn new(ff: &ForceField, cutoff: f64, alpha: f64) -> Self {
        let n = ff.n_types();
        let cutoff_sq = cutoff * cutoff;
        let r6_inv = 1.0 / (cutoff_sq * cutoff_sq * cutoff_sq);
        let mut entries = Vec::with_capacity(n * n);
        for i in 0..n as u32 {
            for j in 0..n as u32 {
                let p = ff.lj(i, j);
                entries.push(PairEntry {
                    a: p.a,
                    b: p.b,
                    shift: (p.a * r6_inv - p.b) * r6_inv,
                });
            }
        }
        PairTable {
            n_types: n,
            entries,
            coulomb: CoulombTable::new(alpha, cutoff_sq),
            cutoff_sq,
        }
    }

    /// The screened Coulomb table every real-space caller reads.
    #[inline]
    pub fn coulomb(&self) -> &CoulombTable {
        &self.coulomb
    }

    /// Number of LJ types the table covers.
    pub fn n_types(&self) -> usize {
        self.n_types
    }

    /// Baked entry for a type pair.
    #[inline]
    pub fn entry(&self, ti: u32, tj: u32) -> PairEntry {
        self.entries[ti as usize * self.n_types + tj as usize]
    }

    /// The row of entries for type `ti`, indexable by the partner's type —
    /// hoists the row-base computation out of the inner pair loop.
    #[inline]
    pub fn row(&self, ti: u32) -> &[PairEntry] {
        let base = ti as usize * self.n_types;
        &self.entries[base..base + self.n_types]
    }
}

/// The force field: LJ type table with precomputed combined pairs.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ForceField {
    pub types: Vec<LjType>,
    /// Row-major `n_types × n_types` table of combined parameters
    /// (Lorentz–Berthelot).
    table: Vec<LjPair>,
}

impl ForceField {
    /// Build the combined-parameter table from per-type values using
    /// Lorentz–Berthelot rules (σ arithmetic mean, ε geometric mean).
    pub fn new(types: Vec<LjType>) -> Self {
        let n = types.len();
        let mut table = vec![LjPair::default(); n * n];
        for (i, ti) in types.iter().enumerate() {
            for (j, tj) in types.iter().enumerate() {
                let sigma = 0.5 * (ti.sigma + tj.sigma);
                let eps = (ti.epsilon * tj.epsilon).sqrt();
                table[i * n + j] = LjPair::from_eps_sigma(eps, sigma);
            }
        }
        ForceField { types, table }
    }

    /// Number of LJ types.
    pub fn n_types(&self) -> usize {
        self.types.len()
    }

    /// Combined coefficients for a type pair.
    #[inline]
    pub fn lj(&self, ti: u32, tj: u32) -> LjPair {
        self.table[ti as usize * self.types.len() + tj as usize]
    }

    /// Standard water + generic protein-ish LJ set used by the synthetic
    /// builders. Types: 0 = water O (TIP3P), 1 = water H, 2 = backbone C,
    /// 3 = polar N/O, 4 = nonpolar H, 5 = S-like heavy atom, 6 = ion.
    pub fn standard() -> Self {
        ForceField::new(vec![
            LjType {
                epsilon: 0.1521,
                sigma: 3.1507,
            }, // TIP3P O
            LjType {
                epsilon: 0.0,
                sigma: 1.0,
            }, // TIP3P H (no LJ)
            LjType {
                epsilon: 0.0860,
                sigma: 3.3997,
            }, // C (AMBER CT-like)
            LjType {
                epsilon: 0.1700,
                sigma: 3.2500,
            }, // N/O polar
            LjType {
                epsilon: 0.0157,
                sigma: 2.6495,
            }, // H nonpolar
            LjType {
                epsilon: 0.2500,
                sigma: 3.5636,
            }, // S-like
            LjType {
                epsilon: 0.0874,
                sigma: 3.3284,
            }, // Na+-like ion
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_parameters_lorentz_berthelot() {
        let ff = ForceField::new(vec![
            LjType {
                epsilon: 0.2,
                sigma: 3.0,
            },
            LjType {
                epsilon: 0.8,
                sigma: 4.0,
            },
        ]);
        let p = ff.lj(0, 1);
        let eps = (0.2f64 * 0.8).sqrt();
        let sigma: f64 = 3.5;
        assert!((p.b - 4.0 * eps * sigma.powi(6)).abs() < 1e-9);
        assert!((p.a - 4.0 * eps * sigma.powi(12)).abs() < 1e-6);
    }

    #[test]
    fn table_is_symmetric() {
        let ff = ForceField::standard();
        for i in 0..ff.n_types() as u32 {
            for j in 0..ff.n_types() as u32 {
                let pij = ff.lj(i, j);
                let pji = ff.lj(j, i);
                assert_eq!(pij.a, pji.a);
                assert_eq!(pij.b, pji.b);
            }
        }
    }

    #[test]
    fn lj_minimum_at_expected_radius() {
        // E(r) = a/r^12 − b/r^6 has its minimum at r = (2a/b)^(1/6) = 2^(1/6) σ.
        let ff = ForceField::new(vec![LjType {
            epsilon: 0.5,
            sigma: 3.0,
        }]);
        let p = ff.lj(0, 0);
        let rmin = (2.0 * p.a / p.b).powf(1.0 / 6.0);
        assert!((rmin - 3.0 * 2f64.powf(1.0 / 6.0)).abs() < 1e-9);
        // Depth at the minimum equals −ε.
        let e = p.a / rmin.powi(12) - p.b / rmin.powi(6);
        assert!((e + 0.5).abs() < 1e-9);
    }

    #[test]
    fn hydrogen_has_no_lj() {
        let ff = ForceField::standard();
        let p = ff.lj(1, 1);
        assert_eq!(p.a, 0.0);
        assert_eq!(p.b, 0.0);
    }

    #[test]
    fn pair_table_matches_lj_plus_shift() {
        let ff = ForceField::standard();
        let cutoff = 9.0;
        let table = PairTable::new(&ff, cutoff, 0.35);
        assert_eq!(table.n_types(), ff.n_types());
        let cutoff_sq = cutoff * cutoff;
        for i in 0..ff.n_types() as u32 {
            let row = table.row(i);
            for j in 0..ff.n_types() as u32 {
                let p = ff.lj(i, j);
                let e = table.entry(i, j);
                assert_eq!(e.a, p.a);
                assert_eq!(e.b, p.b);
                let shift = crate::pairkernel::lj_shift_at(p.a, p.b, cutoff_sq);
                assert_eq!(e.shift, shift, "shift mismatch at ({i},{j})");
                assert_eq!(row[j as usize].shift, shift);
            }
        }
        assert_eq!(table.cutoff_sq, cutoff_sq);
    }

    #[test]
    fn default_settings_sane() {
        let s = NonbondedSettings::default();
        assert!(s.cutoff > 0.0 && s.skin > 0.0 && s.ewald_alpha > 0.0);
        // The splitting should make the real-space tail negligible at rc.
        let tail = crate::erfc::erfc(s.ewald_alpha * s.cutoff);
        assert!(tail < 1e-4, "erfc(α rc) = {tail}");
    }
}
