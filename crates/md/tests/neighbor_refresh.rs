//! Property test for the production stream's list refresh: after ANY
//! sequence of displacements — jitter around skin/2, cell-crossing jumps,
//! barostat-style box rescales — evaluating through one reused
//! [`NonbondedWorkspace`] must give the forces, energies and in-cutoff pair
//! count of the scalar reference kernel over a [`NeighborList`] built from
//! scratch at the same positions, whether the stream kept its list or
//! rebuilt it, and the stream's list must be exactly the reference list at
//! the stream's epoch.
//!
//! The stream accumulates in fixed point, so "the forces of the reference"
//! means: within the reference's own f64 rounding plus half a
//! `FORCE_SCALE` unit per pair an atom takes part in (per row for
//! energies). Uniformly random atoms can overlap far more closely than any
//! MD state; a pair force component beyond `MAX_FORCE`, or a row's energy
//! or virial sum beyond it, then saturates by design. A model of the sink
//! over the stream's own rows predicts exactly which do: the clamp count
//! and the saturation record must match it, every atom outside a saturated
//! pair must still match the reference, and a term with a saturated row is
//! compared against the reference with that row clamped.

use anton2_md::fixedpoint::{FORCE_SCALE, MAX_FORCE};
use anton2_md::forcefield::{ForceField, LjType, NonbondedSettings};
use anton2_md::neighbor::NeighborList;
use anton2_md::pairkernel::{count_interactions, nonbonded_forces, pair_interaction};
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

/// The fixed-point sink's saturation, predicted in f64 from the stream's
/// rows at `s`'s positions.
struct SinkModel {
    /// Endpoints of an in-cutoff pair with a force component beyond
    /// `MAX_FORCE`.
    in_saturated_pair: Vec<bool>,
    /// Per row: its sums of LJ energy, real-space Coulomb energy, virial
    /// and LJ virial (the `NonbondedEnergy` order), and of their absolute
    /// values.
    rows: Vec<([f64; 4], [f64; 4])>,
    /// Saturated components: pair-force components plus row sums.
    clamps: u64,
    /// Row atom of the first row (in stream order) with a saturation.
    first: Option<usize>,
}

fn sink_model(s: &System, ws: &NonbondedWorkspace) -> SinkModel {
    let table = s.pair_table();
    let top = &s.topology;
    let coulomb = table.coulomb();
    let mut m = SinkModel {
        in_saturated_pair: vec![false; s.n_atoms()],
        rows: Vec::new(),
        clamps: 0,
        first: None,
    };
    let pairs: Vec<(usize, usize)> = ws
        .stream()
        .pairs()
        .map(|(a, b)| (a as usize, b as usize))
        .collect();
    for row in pairs.chunk_by(|p, q| p.0 == q.0) {
        let (mut sum, mut abs) = ([0.0f64; 4], [0.0f64; 4]);
        let mut saturated = false;
        for &(a, b) in row {
            let d = s.pbc.min_image(s.positions[a], s.positions[b]);
            let r_sq = d.norm_sq();
            if r_sq >= s.nb.cutoff * s.nb.cutoff {
                continue;
            }
            let e = table.entry(top.lj_types[a], top.lj_types[b]);
            let qq = top.charges[a] * top.charges[b];
            let (f_over_r, e_lj, e_coul) = pair_interaction(r_sq, e.a, e.b, e.shift, qq, coulomb);
            let (f_lj, _, _) = pair_interaction(r_sq, e.a, e.b, e.shift, 0.0, coulomb);
            let f = d * f_over_r;
            let comps = [f.x, f.y, f.z]
                .iter()
                .filter(|x| x.abs() > MAX_FORCE)
                .count();
            if comps > 0 {
                m.clamps += comps as u64;
                m.in_saturated_pair[a] = true;
                m.in_saturated_pair[b] = true;
                saturated = true;
            }
            for (k, x) in [e_lj, e_coul, f_over_r * r_sq, f_lj * r_sq]
                .into_iter()
                .enumerate()
            {
                sum[k] += x;
                abs[k] += x.abs();
            }
        }
        let terms = sum.iter().filter(|x| x.abs() > MAX_FORCE).count();
        m.clamps += terms as u64;
        if (saturated || terms > 0) && m.first.is_none() {
            m.first = Some(row[0].0);
        }
        m.rows.push((sum, abs));
    }
    m
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
            let model = sink_model(&s, &ws);
            prop_assert_eq!(c.fixedpoint_clamps, model.clamps, "saturated components");
            prop_assert_eq!(
                ws.saturation(),
                model.first.map(|a| (a, model.clamps)),
                "saturation record"
            );
            // Quantization bound: half a unit per pair an atom takes part
            // in (the longest row of the two-sided list), and per row for
            // each energy sum.
            let mut touches = vec![0usize; n];
            for (a, b) in ws.stream().pairs() {
                touches[a as usize] += 1;
                touches[b as usize] += 1;
            }
            let half = 0.5 / FORCE_SCALE;
            let qf = touches.into_iter().max().unwrap_or(0) as f64 * half;
            let qe = n as f64 * half;
            // A term none of whose rows can reach `MAX_FORCE` is the
            // reference's; otherwise the reference is the sum of the
            // model's rows, each clamped as the sink clamps it (a
            // saturated row is exact, an unsaturated one carries its
            // own f64 rounding).
            let got = [e.lj, e.coulomb_real, e.virial, e.virial_lj];
            let reference = [e_ref.lj, e_ref.coulomb_real, e_ref.virial, e_ref.virial_lj];
            for (k, name) in ["lj", "coulomb", "virial", "lj virial"].into_iter().enumerate() {
                let (want, scale) = if model.rows.iter().all(|(_, abs)| abs[k] <= MAX_FORCE) {
                    (reference[k], reference[k].abs())
                } else {
                    model.rows.iter().fold((0.0, 0.0), |(w, sc), (sum, abs)| {
                        let x = sum[k].clamp(-MAX_FORCE, MAX_FORCE);
                        (w + x, sc + if x == sum[k] { abs[k] } else { x.abs() })
                    })
                };
                prop_assert!(
                    (got[k] - want).abs() <= 1e-12 * scale.max(1.0) + qe,
                    "{} {} vs {}", name, got[k], want
                );
            }
            // Every atom outside a saturated pair is the reference's.
            for (i, (got, want)) in f.iter().zip(&f_ref).enumerate() {
                if model.in_saturated_pair[i] {
                    continue;
                }
                prop_assert!(
                    (*got - *want).norm() <= 1e-12 * (1.0 + want.norm()) + 3f64.sqrt() * qf,
                    "atom {}: {:?} vs {:?}", i, got, want
                );
            }
        }
    }
}
