//! Property test for the production stream's list refresh: after ANY
//! sequence of displacements — jitter around skin/2, cell-crossing jumps,
//! barostat-style box rescales — evaluating through one reused
//! [`NonbondedWorkspace`] must give the forces, energies and in-cutoff pair
//! count of the scalar reference kernel over a [`NeighborList`] built from
//! scratch at the same positions, whether the stream kept its list or
//! rebuilt it, and the stream's list must be exactly the reference list at
//! the stream's epoch.

use anton2_md::forcefield::{ForceField, LjType, NonbondedSettings};
use anton2_md::neighbor::NeighborList;
use anton2_md::pairkernel::{count_interactions, nonbonded_forces};
use anton2_md::pbc::PbcBox;
use anton2_md::stream::{
    nonbonded_forces_streamed, nonbonded_forces_streamed_profiled, NonbondedWorkspace,
};
use anton2_md::telemetry::{Telemetry, TelemetryLevel};
use anton2_md::topology::{Bond, Topology};
use anton2_md::vec3::{v3, Vec3};
use anton2_md::System;
use proptest::prelude::*;

const BOX: f64 = 38.0;

/// Small deterministic generator for displacement noise; proptest supplies
/// only the seed, keeping case generation cheap.
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn unit(&mut self) -> f64 {
        2.0 * self.next_f64() - 1.0
    }
}

/// `n` charged LJ atoms at random positions, bonded in triples so the
/// stream has 1–2 and 1–3 exclusions to bake out.
fn system(seed: u64, n: usize) -> System {
    let mut rng = Lcg(seed ^ 0x9e37_79b9_7f4a_7c15);
    let positions = (0..n)
        .map(|_| {
            v3(
                rng.next_f64() * BOX,
                rng.next_f64() * BOX,
                rng.next_f64() * BOX,
            )
        })
        .collect();
    let mut topology = Topology {
        masses: vec![12.0; n],
        charges: (0..n)
            .map(|i| if i % 2 == 0 { 0.4 } else { -0.4 })
            .collect(),
        lj_types: vec![0; n],
        ..Default::default()
    };
    for i in (0..n - 2).step_by(3) {
        for j in [i, i + 1] {
            topology.bonds.push(Bond {
                i: j,
                j: j + 1,
                k: 100.0,
                r0: 1.5,
            });
        }
    }
    topology.build_exclusions();
    let ff = ForceField::new(vec![LjType {
        epsilon: 0.2,
        sigma: 3.0,
    }]);
    System::new(
        topology,
        ff,
        NonbondedSettings::default(),
        PbcBox::cubic(BOX),
        positions,
    )
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-12 * want.abs().max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// 38 Å box at range 10 → 3 cells of width 12.67 per axis. Mode 0
    /// jitters every atom by up to 1.04 Å (past skin/2 for some atoms, not
    /// for others), mode 1 kicks every fifth atom ≥ 4 Å across cell
    /// boundaries (must rebuild), mode 2 rescales the box (must rebuild).
    #[test]
    fn refreshed_stream_matches_reference_list_and_kernel(
        seed in 0u64..10_000,
        n in 48usize..128,
        modes in proptest::collection::vec(0u8..3, 2..7),
        parallel in proptest::bool::ANY,
    ) {
        let mut s = system(seed, n);
        let table = s.pair_table();
        let mut rng = Lcg(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1);
        let mut ws = NonbondedWorkspace::new();
        let mut f = vec![Vec3::ZERO; n];
        nonbonded_forces_streamed(&s, &table, &mut ws, &mut f, parallel);
        for &mode in std::iter::once(&0u8).chain(&modes) {
            match mode {
                0 => {
                    for p in &mut s.positions {
                        *p += v3(rng.unit(), rng.unit(), rng.unit()) * 0.6;
                    }
                }
                1 => {
                    for p in s.positions.iter_mut().step_by(5) {
                        *p += v3(
                            4.0 + 2.0 * rng.next_f64(),
                            2.0 * rng.unit(),
                            2.0 * rng.unit(),
                        );
                    }
                }
                _ => {
                    let mu = 1.0 + 0.002 + 0.004 * rng.next_f64();
                    s.pbc = PbcBox::new(s.pbc.lx * mu, s.pbc.ly * mu, s.pbc.lz * mu);
                    for p in &mut s.positions {
                        *p = *p * mu;
                    }
                }
            }
            let mut tel = Telemetry::new(TelemetryLevel::Counters);
            f.iter_mut().for_each(|v| *v = Vec3::ZERO);
            let e =
                nonbonded_forces_streamed_profiled(&s, &table, &mut ws, &mut f, parallel, &mut tel);
            let c = tel.profile().counters;
            if mode != 0 {
                prop_assert_eq!(c.neighbor_rebuilds, 1, "cell-crossing/box rounds must rebuild");
            }

            // The stream's list is the from-scratch list at its epoch,
            // exclusions baked out: same pairs, exactly.
            let epoch = ws.stream().ref_positions();
            if c.neighbor_rebuilds == 1 {
                prop_assert_eq!(epoch, &s.positions[..], "a rebuild moves the epoch here");
            }
            let nl_epoch = NeighborList::build(&s.pbc, epoch, s.nb.cutoff, s.nb.skin);
            let mut want: Vec<(u32, u32)> = (0..n)
                .flat_map(|i| nl_epoch.row(i).iter().map(move |&j| (i as u32, j)))
                .filter(|&(i, j)| !s.topology.exclusions.is_excluded(i as usize, j as usize))
                .collect();
            let mut got: Vec<(u32, u32)> =
                ws.stream().pairs().map(|(a, b)| (a.min(b), a.max(b))).collect();
            want.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, want, "stream list differs from the reference list");

            let nl = NeighborList::build(&s.pbc, &s.positions, s.nb.cutoff, s.nb.skin);
            let mut f_ref = vec![Vec3::ZERO; n];
            let e_ref = nonbonded_forces(&s, &nl, &mut f_ref);
            prop_assert_eq!(
                c.pairs_evaluated,
                count_interactions(&s, &nl, &s.topology.exclusions),
                "in-cutoff pair count diverged"
            );
            prop_assert!(close(e.lj, e_ref.lj), "lj {} vs {}", e.lj, e_ref.lj);
            prop_assert!(close(e.coulomb_real, e_ref.coulomb_real), "coulomb");
            prop_assert!(close(e.virial, e_ref.virial), "virial");
            prop_assert!(close(e.virial_lj, e_ref.virial_lj), "lj virial");
            for (got, want) in f.iter().zip(&f_ref) {
                prop_assert!(
                    (*got - *want).norm() <= 1e-12 * (1.0 + want.norm()),
                    "{:?} vs {:?}", got, want
                );
            }
        }
    }
}
