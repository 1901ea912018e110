//! Cross-crate fidelity: the machine's distributed computation reproduces
//! the serial engine's numbers (DESIGN.md experiment F7), and the
//! fixed-point path is bitwise deterministic (F9).

use anton2::core::cosim::{self, AssignRule};
use anton2::core::{Decomposition, MachineConfig, StepPlan};
use anton2::md::builders::{dhfr_benchmark, solvated_protein, water_box};
use anton2::md::gse::{Gse, GseParams};
use anton2::md::vec3::Vec3;
use anton2::md::System;
use anton2::net::Torus;

/// The merged per-node image equals the engine's pair-stream image in every
/// force component, under both distribution rules and at every machine
/// size: the co-simulator and the engine run the same kernel, round each
/// pair force once, and add integers.
fn assert_cosim_equals_engine(s: &System, sizes: &[u32]) {
    for rule in [AssignRule::MinIndexOwner, AssignRule::NeutralTerritory] {
        for &nodes in sizes {
            let out = cosim::verify_pair_forces_with(s, nodes, 7 + nodes as u64, rule);
            let differing = cosim::differing_from_engine(s, &out.image);
            assert_eq!(
                differing,
                0,
                "{rule:?} on {nodes} nodes: {differing} of {} components differ",
                3 * s.n_atoms()
            );
            assert_eq!(out.clamps, 0);
        }
    }
}

#[test]
fn distributed_pair_forces_equal_engine_image() {
    assert_cosim_equals_engine(&water_box(6, 6, 6, 3), &[1, 8, 64]);
    assert_cosim_equals_engine(&solvated_protein(60, 180, 9), &[1, 8, 64]);
}

/// The same identity on the paper's 23,558-atom DHFR system; run in release
/// (`cargo test --release --test cosim_fidelity -- --ignored`).
#[test]
#[ignore = "DHFR-sized: run in release"]
fn distributed_pair_forces_equal_engine_image_on_dhfr() {
    assert_cosim_equals_engine(&dhfr_benchmark(1), &[1, 8, 64]);
}

#[test]
fn force_checksums_identical_across_decompositions() {
    let s = solvated_protein(60, 180, 9);
    let reference = cosim::force_checksum(&s, 1, 0);
    for nodes in [8u32, 64] {
        for scramble in [0u64, 31337] {
            assert_eq!(cosim::force_checksum(&s, nodes, scramble), reference);
        }
    }
}

#[test]
fn distributed_kspace_energy_matches_serial_gse() {
    let s = water_box(4, 4, 4, 5);
    let serial = {
        let gse = Gse::new(
            s.nb.ewald_alpha,
            s.pbc,
            GseParams::for_box(s.nb.ewald_alpha, &s.pbc),
        );
        let mut f = vec![Vec3::ZERO; s.n_atoms()];
        gse.energy_forces(&s.positions, &s.topology.charges, &mut f)
    };
    let dist = cosim::distributed_kspace_energy(&s, 8);
    assert!(
        (dist - serial).abs() < 1e-8 * serial.abs().max(1.0),
        "{dist} vs {serial}"
    );
}

#[test]
fn plan_pair_estimate_tracks_real_interaction_count() {
    let s = water_box(6, 6, 6, 2);
    let plan = StepPlan::build(&s, &MachineConfig::anton2(8));
    let nl =
        anton2::md::neighbor::NeighborList::build(&s.pbc, &s.positions, s.nb.cutoff, s.nb.skin);
    let real = anton2::md::pairkernel::count_interactions(&s, &nl, &s.topology.exclusions);
    let est = plan.total_pairs();
    let ratio = est as f64 / real as f64;
    assert!((0.8..1.3).contains(&ratio), "estimate {est} vs real {real}");
}

#[test]
fn pair_assignment_covers_every_interaction_once() {
    let s = water_box(5, 5, 5, 11);
    let decomp = Decomposition::new(Torus::for_nodes(27), s.pbc);
    let per_node = cosim::assign_pairs(&s, &decomp);
    let total: usize = per_node.iter().map(|v| v.len()).sum();
    let nl =
        anton2::md::neighbor::NeighborList::build(&s.pbc, &s.positions, s.nb.cutoff, s.nb.skin);
    let serial = anton2::md::pairkernel::count_interactions(&s, &nl, &s.topology.exclusions);
    assert_eq!(total as u64, serial);
}
