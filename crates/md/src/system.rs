//! The simulated system: topology + force field + box + dynamic state.

use crate::forcefield::{ForceField, NonbondedSettings, PairTable};
use crate::pbc::PbcBox;
use crate::topology::Topology;
use crate::units::{ke_from_temperature, temperature_from_ke};
use crate::vec3::Vec3;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A complete simulatable system.
#[derive(Clone, Debug)]
pub struct System {
    pub topology: Topology,
    pub forcefield: ForceField,
    pub nb: NonbondedSettings,
    pub pbc: PbcBox,
    /// Positions, Å (kept wrapped into the primary cell between steps).
    pub positions: Vec<Vec3>,
    /// Velocities, Å per internal time unit (see `units`).
    pub velocities: Vec<Vec3>,
}

impl System {
    /// Assemble a system; lengths of state vectors must match the topology.
    pub fn new(
        topology: Topology,
        forcefield: ForceField,
        nb: NonbondedSettings,
        pbc: PbcBox,
        positions: Vec<Vec3>,
    ) -> Self {
        assert_eq!(
            topology.n_atoms(),
            positions.len(),
            "positions/topology mismatch"
        );
        assert!(
            nb.cutoff + nb.skin <= pbc.min_edge() / 2.0,
            "cutoff {} + skin {} exceeds half the smallest box edge {}",
            nb.cutoff,
            nb.skin,
            pbc.min_edge() / 2.0
        );
        let n = positions.len();
        System {
            topology,
            forcefield,
            nb,
            pbc,
            positions,
            velocities: vec![Vec3::ZERO; n],
        }
    }

    pub fn n_atoms(&self) -> usize {
        self.positions.len()
    }

    /// Kinetic energy, kcal/mol.
    pub fn kinetic_energy(&self) -> f64 {
        0.5 * self
            .velocities
            .iter()
            .zip(&self.topology.masses)
            .map(|(v, &m)| m * v.norm_sq())
            .sum::<f64>()
    }

    /// Instantaneous temperature, K.
    pub fn temperature(&self) -> f64 {
        temperature_from_ke(self.kinetic_energy(), self.topology.degrees_of_freedom())
    }

    /// Total linear momentum (amu·Å/internal-time).
    pub fn total_momentum(&self) -> Vec3 {
        self.velocities
            .iter()
            .zip(&self.topology.masses)
            .map(|(v, &m)| *v * m)
            .sum()
    }

    /// Subtract the center-of-mass velocity so net momentum is zero.
    pub fn remove_com_motion(&mut self) {
        let p = self.total_momentum();
        let m: f64 = self.topology.masses.iter().sum();
        let vcom = p / m;
        for v in &mut self.velocities {
            *v -= vcom;
        }
    }

    /// Draw velocities from the Maxwell–Boltzmann distribution at
    /// `t_kelvin`, remove center-of-mass drift, then rescale to hit the
    /// target exactly.
    pub fn thermalize(&mut self, t_kelvin: f64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kb_t = crate::units::KB * t_kelvin;
        for (v, &m) in self.velocities.iter_mut().zip(&self.topology.masses) {
            let s = (kb_t / m).sqrt();
            *v = Vec3::new(
                gauss(&mut rng) * s,
                gauss(&mut rng) * s,
                gauss(&mut rng) * s,
            );
        }
        self.remove_com_motion();
        self.rescale_to_temperature(t_kelvin);
    }

    /// Rescale velocities so the instantaneous temperature equals
    /// `t_kelvin` (no-op for a zero-temperature state).
    pub fn rescale_to_temperature(&mut self, t_kelvin: f64) {
        let ke = self.kinetic_energy();
        if ke <= 0.0 {
            return;
        }
        let target = ke_from_temperature(t_kelvin, self.topology.degrees_of_freedom());
        let s = (target / ke).sqrt();
        for v in &mut self.velocities {
            *v = *v * s;
        }
    }

    /// Wrap all positions into the primary cell.
    pub fn wrap_positions(&mut self) {
        for p in &mut self.positions {
            *p = self.pbc.wrap(*p);
        }
    }

    /// Number density, atoms/Å³.
    pub fn density(&self) -> f64 {
        self.n_atoms() as f64 / self.pbc.volume()
    }

    /// Bake the pair table for this system's force field at its configured
    /// cutoff and Ewald splitting (input to every real-space pair kernel).
    pub fn pair_table(&self) -> PairTable {
        PairTable::new(&self.forcefield, self.nb.cutoff, self.nb.ewald_alpha)
    }
}

/// Standard normal deviate via Box–Muller (keeps the `rand` surface small).
fn gauss(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::v3;

    fn tiny_system(n: usize) -> System {
        let topology = Topology {
            masses: vec![12.0; n],
            charges: vec![0.0; n],
            lj_types: vec![2; n],
            ..Default::default()
        };
        let positions = (0..n)
            .map(|i| {
                v3(
                    (i % 10) as f64 * 3.0 + 1.0,
                    (i / 10) as f64 * 3.0 + 1.0,
                    1.0,
                )
            })
            .collect();
        System::new(
            topology,
            ForceField::standard(),
            NonbondedSettings::default(),
            PbcBox::cubic(40.0),
            positions,
        )
    }

    #[test]
    fn thermalize_hits_target_temperature() {
        let mut s = tiny_system(64);
        s.thermalize(300.0, 7);
        assert!((s.temperature() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn thermalize_removes_com_momentum() {
        let mut s = tiny_system(64);
        s.thermalize(300.0, 7);
        assert!(s.total_momentum().norm() < 1e-9);
    }

    #[test]
    fn thermalize_is_seeded() {
        let mut a = tiny_system(16);
        let mut b = tiny_system(16);
        a.thermalize(250.0, 99);
        b.thermalize(250.0, 99);
        assert_eq!(a.velocities, b.velocities);
        let mut c = tiny_system(16);
        c.thermalize(250.0, 100);
        assert_ne!(a.velocities, c.velocities);
    }

    #[test]
    fn kinetic_energy_hand_check() {
        let mut s = tiny_system(2);
        s.velocities[0] = v3(1.0, 0.0, 0.0);
        s.velocities[1] = v3(0.0, 2.0, 0.0);
        // KE = ½·12·1 + ½·12·4 = 30 kcal/mol.
        assert!((s.kinetic_energy() - 30.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceeds half")]
    fn cutoff_too_large_for_box() {
        let topology = Topology {
            masses: vec![1.0],
            charges: vec![0.0],
            lj_types: vec![0],
            ..Default::default()
        };
        System::new(
            topology,
            ForceField::standard(),
            NonbondedSettings::default(), // cutoff 9 + skin 1 = 10 > 15/2
            PbcBox::cubic(15.0),
            vec![Vec3::ZERO],
        );
    }

    #[test]
    fn density() {
        let s = tiny_system(64);
        assert!((s.density() - 64.0 / 40.0f64.powi(3)).abs() < 1e-15);
    }
}
