//! Cross-module property tests on the MD substrate: invariants that must
//! hold for *arbitrary* configurations, not just the hand-picked ones in
//! per-module unit tests.

#![cfg(test)]

use crate::forcefield::{ForceField, NonbondedSettings};
use crate::neighbor::NeighborList;
use crate::pairkernel::{nonbonded_forces, NonbondedEnergy};
use crate::pbc::PbcBox;
use crate::stream::{nonbonded_forces_streamed_profiled, NonbondedWorkspace};
use crate::system::System;
use crate::telemetry::{Telemetry, TelemetryLevel};
use crate::topology::{Bond, Topology};
use crate::vec3::{v3, Vec3};
use proptest::prelude::*;

/// An arbitrary small neutral system of charged LJ particles in a box large
/// enough for the default cutoff.
fn arb_system() -> impl Strategy<Value = System> {
    let atom = (1.0f64..39.0, 1.0f64..39.0, 1.0f64..39.0, -0.5f64..0.5);
    proptest::collection::vec(atom, 2..24).prop_map(|atoms| {
        let n = atoms.len();
        let mut positions = Vec::with_capacity(n);
        let mut charges = Vec::with_capacity(n);
        for &(x, y, z, q) in &atoms {
            positions.push(v3(x, y, z));
            charges.push(q);
        }
        // Neutralize exactly.
        let net: f64 = charges.iter().sum();
        for q in &mut charges {
            *q -= net / n as f64;
        }
        let topology = Topology {
            masses: vec![12.0; n],
            charges,
            lj_types: vec![2; n],
            ..Default::default()
        };
        System::new(
            topology,
            ForceField::standard(),
            NonbondedSettings::default(),
            PbcBox::cubic(40.0),
            positions,
        )
    })
}

fn pair_forces(system: &System) -> (Vec<Vec3>, f64) {
    let (f, e) = reference_kernel(system);
    (f, e.total())
}

fn reference_kernel(system: &System) -> (Vec<Vec3>, NonbondedEnergy) {
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

/// Like [`arb_system`], but chained with random bonds so the topology has
/// real 1–2/1–3 exclusions and 1–4 scaled pairs, in a box size that hits
/// both the cell path (≥ 30 Å) and the all-pairs fallback (< 30 Å).
fn arb_bonded_system() -> impl Strategy<Value = System> {
    let atom = (
        0.02f64..0.98,
        0.02f64..0.98,
        0.02f64..0.98,
        -0.5f64..0.5,
        0usize..4,
    );
    (
        proptest::collection::vec(atom, 4..24),
        proptest::collection::vec(proptest::bool::ANY, 24),
        20.5f64..44.0,
    )
        .prop_map(|(atoms, links, edge)| {
            let n = atoms.len();
            // Types with distinct LJ parameters (including one with ε = 0).
            let lj_menu = [0u32, 1, 2, 5];
            let mut positions = Vec::with_capacity(n);
            let mut charges = Vec::with_capacity(n);
            let mut lj_types = Vec::with_capacity(n);
            for &(x, y, z, q, t) in &atoms {
                positions.push(v3(x * edge, y * edge, z * edge));
                charges.push(q);
                lj_types.push(lj_menu[t]);
            }
            let net: f64 = charges.iter().sum();
            for q in &mut charges {
                *q -= net / n as f64;
            }
            let mut topology = Topology {
                masses: vec![12.0; n],
                charges,
                lj_types,
                ..Default::default()
            };
            // Random chain segments: a true link between i−1 and i creates
            // 1–2/1–3 exclusions and (for runs of ≥ 4) 1–4 pairs.
            for (i, &linked) in links.iter().enumerate().take(n).skip(1) {
                if linked {
                    topology.bonds.push(Bond {
                        i: i - 1,
                        j: i,
                        k: 300.0,
                        r0: 1.5,
                    });
                }
            }
            topology.build_exclusions();
            System::new(
                topology,
                ForceField::standard(),
                NonbondedSettings::default(),
                PbcBox::cubic(edge),
                positions,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Newton's third law: pair forces sum to zero for any configuration.
    #[test]
    fn pair_forces_sum_to_zero(system in arb_system()) {
        let (f, _) = pair_forces(&system);
        let net: Vec3 = f.iter().copied().sum();
        let scale: f64 = f.iter().map(|x| x.norm()).fold(0.0, f64::max).max(1.0);
        prop_assert!(net.norm() < 1e-9 * scale, "net {net:?} at scale {scale}");
    }

    /// Rigid translation leaves the pair energy unchanged (PBC-consistent).
    #[test]
    fn pair_energy_translation_invariant(
        system in arb_system(),
        dx in -60.0f64..60.0,
        dy in -60.0f64..60.0,
        dz in -60.0f64..60.0,
    ) {
        let (_, e0) = pair_forces(&system);
        let mut moved = system.clone();
        for p in &mut moved.positions {
            *p += v3(dx, dy, dz);
        }
        let (_, e1) = pair_forces(&moved);
        prop_assert!((e0 - e1).abs() < 1e-7 * e0.abs().max(1.0), "{e0} vs {e1}");
    }

    /// Axis-permutation symmetry: relabeling (x,y,z) → (y,z,x) everywhere
    /// (cubic box) preserves the energy.
    #[test]
    fn pair_energy_axis_permutation_invariant(system in arb_system()) {
        let (_, e0) = pair_forces(&system);
        let mut rotated = system.clone();
        for p in &mut rotated.positions {
            *p = v3(p.y, p.z, p.x);
        }
        let (_, e1) = pair_forces(&rotated);
        prop_assert!((e0 - e1).abs() < 1e-8 * e0.abs().max(1.0));
    }

    /// Energy is independent of atom ordering (relabeling invariance).
    #[test]
    fn pair_energy_relabeling_invariant(system in arb_system(), seed in 0u64..1000) {
        let (_, e0) = pair_forces(&system);
        let n = system.n_atoms();
        let mut order: Vec<usize> = (0..n).collect();
        // Deterministic shuffle.
        order.sort_by_key(|&k| (k as u64).wrapping_mul(seed | 1).rotate_left(13));
        let mut shuffled = system.clone();
        shuffled.positions = order.iter().map(|&k| system.positions[k]).collect();
        shuffled.topology.charges =
            order.iter().map(|&k| system.topology.charges[k]).collect();
        shuffled.topology.lj_types =
            order.iter().map(|&k| system.topology.lj_types[k]).collect();
        shuffled.topology.masses =
            order.iter().map(|&k| system.topology.masses[k]).collect();
        let (_, e1) = pair_forces(&shuffled);
        prop_assert!((e0 - e1).abs() < 1e-7 * e0.abs().max(1.0));
    }

    /// The streaming kernel (serial and parallel) agrees with
    /// the serial reference kernel on forces, energies and virials, for
    /// arbitrary systems with exclusions and 1–4 pairs: within 1e-12
    /// relative for the reference's own f64 summation order plus the
    /// fixed-point quantization bound of the stream
    /// (`NonbondedStream::quantization_bounds`: half a `FORCE_SCALE` unit
    /// per pair an atom takes part in, per component — so √3 times that
    /// for a force vector — and per row for energies). No component
    /// saturates.
    #[test]
    fn streamed_kernel_matches_reference(system in arb_bonded_system()) {
        let (fr, er) = reference_kernel(&system);
        let table = system.pair_table();
        let tol = 1e-12;
        for parallel in [false, true] {
            let mut ws = NonbondedWorkspace::new();
            let mut f = vec![Vec3::ZERO; system.n_atoms()];
            let mut tel = Telemetry::new(TelemetryLevel::Counters);
            let e = nonbonded_forces_streamed_profiled(
                &system, &table, &mut ws, &mut f, parallel, &mut tel,
            );
            prop_assert_eq!(tel.profile().counters.fixedpoint_clamps, 0);
            let (qf, qe) = ws.stream().quantization_bounds();
            let close = |x: f64, y: f64| (x - y).abs() <= tol * y.abs().max(1.0) + qe;
            prop_assert!(close(e.lj, er.lj), "{e:?} vs {er:?}");
            prop_assert!(close(e.coulomb_real, er.coulomb_real), "{e:?} vs {er:?}");
            prop_assert!(close(e.virial, er.virial), "{e:?} vs {er:?}");
            prop_assert!(close(e.virial_lj, er.virial_lj), "{e:?} vs {er:?}");
            let scale: f64 =
                fr.iter().map(|x| x.norm()).fold(0.0, f64::max).max(1.0);
            for (a, b) in fr.iter().zip(&f) {
                prop_assert!(
                    (*a - *b).norm() <= tol * scale + 3f64.sqrt() * qf,
                    "parallel={parallel}: {a:?} vs {b:?}"
                );
            }
        }
    }

    /// Order independence of the integer sink, stated directly: rows dealt
    /// at random into up to eight chunks (not contiguous, like a shard's
    /// owned rows), each chunk's rows evaluated in a random order into its
    /// own full-length image, and the images merged in a random order,
    /// give the single serial pass's forces, energies and counts bit for
    /// bit.
    #[test]
    fn random_chunking_and_merge_order_give_equal_bits(
        system in arb_bonded_system(),
        chunks in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        use crate::fixedpoint::FixedAccumulator;
        use crate::stream::{evaluate_rows, Accumulate, RowScratch, Tally, ROW_SEGMENT};
        use rand::rngs::StdRng;
        use rand::{seq::SliceRandom, Rng, SeedableRng};

        let table = system.pair_table();
        let mut ws = NonbondedWorkspace::new();
        ws.stream.ensure(&system);
        let stream = ws.stream();
        let ns = stream.pos.len();
        let mut scratch: RowScratch<ROW_SEGMENT> = RowScratch::new();
        let mut eval = |rows: &[usize]| {
            let mut image = FixedAccumulator::new(ns);
            let tally = evaluate_rows(
                stream,
                stream.atoms(),
                &table,
                rows.iter().copied(),
                &mut scratch,
                Accumulate::new(image.fixed_mut()),
            )
            .tally;
            (image, tally)
        };
        let all: Vec<usize> = (0..ns).collect();
        let (want, want_tally) = eval(&all);

        let mut rng = StdRng::seed_from_u64(seed);
        let mut dealt = vec![Vec::new(); chunks];
        for s in 0..ns {
            dealt[rng.gen_range(0..chunks)].push(s);
        }
        let mut parts: Vec<(FixedAccumulator, Tally)> = dealt
            .iter_mut()
            .map(|rows| {
                rows.shuffle(&mut rng);
                eval(rows)
            })
            .collect();
        parts.shuffle(&mut rng);
        let mut got = FixedAccumulator::new(ns);
        let mut got_tally = Tally::default();
        for (image, tally) in &parts {
            got.merge(image);
            got_tally.add(tally);
        }
        for s in 0..ns {
            prop_assert_eq!(got.fixed(s), want.fixed(s), "slot {}", s);
        }
        prop_assert_eq!(got_tally, want_tally);
    }

    /// SHAKE always lands on the constraint manifold for feasible
    /// perturbations of a rigid dimer.
    #[test]
    fn shake_converges_for_small_perturbations(
        d0 in (-0.2f64..0.2),
        d1 in (-0.2f64..0.2),
        d2 in (-0.2f64..0.2),
        d3 in (-0.2f64..0.2),
    ) {
        use crate::constraints::ConstraintSet;
        use crate::topology::DistanceConstraint;
        let top = Topology {
            masses: vec![12.0, 1.0],
            charges: vec![0.0; 2],
            lj_types: vec![0; 2],
            constraints: vec![DistanceConstraint { i: 0, j: 1, r0: 1.1 }],
            ..Default::default()
        };
        let cs = ConstraintSet::from_topology(&top, false, 0.0, 0.0);
        let pbc = PbcBox::cubic(20.0);
        let reference = vec![v3(5.0, 5.0, 5.0), v3(6.1, 5.0, 5.0)];
        let mut pos = vec![
            reference[0] + v3(d0, d1, 0.0),
            reference[1] + v3(d2, d3, 0.0),
        ];
        cs.shake_positions(&pbc, &reference, &mut pos, 1e-10, 500);
        let d = pbc.min_image(pos[0], pos[1]).norm();
        prop_assert!((d - 1.1).abs() < 1e-8, "constrained distance {d}");
    }

    /// The minimum-image displacement is always the shortest among the 27
    /// nearest periodic images.
    #[test]
    fn min_image_is_truly_minimal(
        ax in 0.0f64..10.0, ay in 0.0f64..12.0, az in 0.0f64..14.0,
        bx in 0.0f64..10.0, by in 0.0f64..12.0, bz in 0.0f64..14.0,
    ) {
        let pbc = PbcBox::new(10.0, 12.0, 14.0);
        let a = v3(ax, ay, az);
        let b = v3(bx, by, bz);
        let d = pbc.min_image(a, b).norm_sq();
        for ix in -1i32..=1 {
            for iy in -1i32..=1 {
                for iz in -1i32..=1 {
                    let image = b + v3(
                        ix as f64 * 10.0,
                        iy as f64 * 12.0,
                        iz as f64 * 14.0,
                    );
                    prop_assert!(d <= (a - image).norm_sq() + 1e-9);
                }
            }
        }
    }

    /// Wrapped positions always land in the primary cell, for any input.
    #[test]
    fn wrap_always_lands_in_cell(
        x in -1e4f64..1e4, y in -1e4f64..1e4, z in -1e4f64..1e4,
    ) {
        let pbc = PbcBox::new(7.0, 11.0, 13.0);
        let w = pbc.wrap(v3(x, y, z));
        prop_assert!(pbc.contains(w), "{w:?}");
    }
}
