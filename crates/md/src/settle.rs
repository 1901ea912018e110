//! SETTLE: the analytic constraint solver for rigid three-site water
//! (Miyamoto & Kollman, J. Comput. Chem. 1992).
//!
//! Solvated biomolecular systems are mostly water, so Anton — like every
//! production MD code — resolves water rigidity analytically instead of
//! iterating SHAKE. The test suite cross-validates this implementation
//! against the iterative solver in [`crate::constraints`].

use crate::pbc::PbcBox;
use crate::vec3::{v3, Vec3};

/// Precomputed rigid-water geometry in the canonical frame:
/// oxygen on the +Y axis at distance `ra` from the center of mass, the two
/// hydrogens at `(∓rc, −rb)`.
#[derive(Clone, Copy, Debug)]
pub struct SettleParams {
    pub ra: f64,
    pub rb: f64,
    pub rc: f64,
    /// O–H bond length, Å.
    pub d_oh: f64,
    /// H–H distance, Å.
    pub d_hh: f64,
    /// Oxygen mass, amu.
    pub m_o: f64,
    /// Hydrogen mass, amu.
    pub m_h: f64,
}

impl SettleParams {
    /// Geometry from bond length and H–O–H angle (radians) and masses.
    pub fn new(d_oh: f64, angle_hoh: f64, m_o: f64, m_h: f64) -> Self {
        let half = angle_hoh / 2.0;
        let rc = d_oh * half.sin();
        // Distance from O to the midpoint of H–H along the symmetry axis.
        let t = d_oh * half.cos();
        let m_total = m_o + 2.0 * m_h;
        let ra = 2.0 * m_h * t / m_total;
        let rb = t - ra;
        SettleParams {
            ra,
            rb,
            rc,
            d_oh,
            d_hh: 2.0 * rc,
            m_o,
            m_h,
        }
    }

    /// TIP3P-style rigid water: d(OH) = 0.9572 Å, ∠HOH = 104.52°.
    pub fn tip3p() -> Self {
        SettleParams::new(0.9572, 104.52f64.to_radians(), 15.9994, 1.008)
    }
}

/// Apply SETTLE to one water. `old` are the pre-step positions (satisfying
/// the constraints), `new` the unconstrained post-drift positions; `new` is
/// overwritten with the constrained positions. Periodic images are handled
/// by unwrapping the molecule around the old oxygen position.
pub fn settle_positions(p: &SettleParams, pbc: &PbcBox, old: [Vec3; 3], new: &mut [Vec3; 3]) {
    // Unwrap both frames around old oxygen so the molecule is contiguous.
    let a0 = old[0];
    let b0 = a0 + pbc.min_image(old[1], a0);
    let c0 = a0 + pbc.min_image(old[2], a0);
    let a1 = a0 + pbc.min_image(new[0], a0);
    let b1 = a0 + pbc.min_image(new[1], a0);
    let c1 = a0 + pbc.min_image(new[2], a0);

    let m_total = p.m_o + 2.0 * p.m_h;
    let com = (a1 * p.m_o + b1 * p.m_h + c1 * p.m_h) / m_total;

    let xb0 = b0 - a0;
    let xc0 = c0 - a0;
    let xa1 = a1 - com;
    let xb1 = b1 - com;
    let xc1 = c1 - com;

    // Orthonormal frame: Z ⟂ old molecular plane, X ⟂ (new O, Z).
    let zaxis = xb0.cross(xc0).normalized();
    let xaxis = xa1.cross(zaxis).normalized();
    let yaxis = zaxis.cross(xaxis);

    let to_frame = |v: Vec3| v3(v.dot(xaxis), v.dot(yaxis), v.dot(zaxis));
    let from_frame = |v: Vec3| xaxis * v.x + yaxis * v.y + zaxis * v.z;

    let b0d = to_frame(xb0);
    let c0d = to_frame(xc0);
    let a1d = to_frame(xa1);
    let b1d = to_frame(xb1);
    let c1d = to_frame(xc1);

    // Step 1: rotate the canonical water about X (φ) and Y (ψ) so its
    // out-of-plane coordinates match the unconstrained positions.
    let sinphi = (a1d.z / p.ra).clamp(-1.0, 1.0);
    let cosphi = (1.0 - sinphi * sinphi).sqrt();
    let sinpsi = ((b1d.z - c1d.z) / (2.0 * p.rc * cosphi)).clamp(-1.0, 1.0);
    let cospsi = (1.0 - sinpsi * sinpsi).sqrt();

    let ya2 = p.ra * cosphi;
    let xb2 = -p.rc * cospsi;
    let t1 = -p.rb * cosphi;
    let t2 = p.rc * sinpsi * sinphi;
    let yb2 = t1 - t2;
    let yc2 = t1 + t2;

    // Step 2: in-plane rotation θ chosen to conserve angular momentum about Z.
    let alpha = xb2 * (b0d.x - c0d.x) + b0d.y * yb2 + c0d.y * yc2;
    let beta = xb2 * (c0d.y - b0d.y) + b0d.x * yb2 + c0d.x * yc2;
    let gamma = b0d.x * b1d.y - b1d.x * b0d.y + c0d.x * c1d.y - c1d.x * c0d.y;
    let a2b2 = alpha * alpha + beta * beta;
    let sintheta =
        ((alpha * gamma - beta * (a2b2 - gamma * gamma).max(0.0).sqrt()) / a2b2).clamp(-1.0, 1.0);
    let costheta = (1.0 - sintheta * sintheta).sqrt();

    let a3d = v3(-ya2 * sintheta, ya2 * costheta, a1d.z);
    let b3d = v3(
        xb2 * costheta - yb2 * sintheta,
        xb2 * sintheta + yb2 * costheta,
        b1d.z,
    );
    let c3d = v3(
        -xb2 * costheta - yc2 * sintheta,
        -xb2 * sintheta + yc2 * costheta,
        c1d.z,
    );

    new[0] = com + from_frame(a3d);
    new[1] = com + from_frame(b3d);
    new[2] = com + from_frame(c3d);
}

/// Remove the relative velocity components along the three rigid bonds of
/// one water: the RATTLE velocity projection in closed form. With bond
/// vectors `r0 = r(O,H1)`, `r1 = r(O,H2)`, `r2 = r(H1,H2)` the corrected
/// velocities are
///
/// ```text
/// vO  −= (r0 λ0 + r1 λ1) / m_O
/// vH1 += (r0 λ0 − r2 λ2) / m_H
/// vH2 += (r1 λ1 + r2 λ2) / m_H
/// ```
///
/// (total momentum is conserved term by term) and requiring `r·Δv = 0`
/// on every bond gives one symmetric 3×3 system `A λ = b` for the three
/// multipliers, solved here by cofactors — no sweeps, no tolerance.
pub fn settle_velocities(
    p: &SettleParams,
    pbc: &PbcBox,
    positions: [Vec3; 3],
    velocities: &mut [Vec3; 3],
) {
    let i_o = 1.0 / p.m_o;
    let i_h = 1.0 / p.m_h;
    let r0 = pbc.min_image(positions[0], positions[1]);
    let r1 = pbc.min_image(positions[0], positions[2]);
    let r2 = pbc.min_image(positions[1], positions[2]);
    let [v_o, v_h1, v_h2] = *velocities;

    let a00 = (i_o + i_h) * r0.norm_sq();
    let a11 = (i_o + i_h) * r1.norm_sq();
    let a22 = 2.0 * i_h * r2.norm_sq();
    let a01 = i_o * r0.dot(r1);
    let a02 = -i_h * r0.dot(r2);
    let a12 = i_h * r1.dot(r2);
    let b0 = r0.dot(v_o - v_h1);
    let b1 = r1.dot(v_o - v_h2);
    let b2 = r2.dot(v_h1 - v_h2);

    let c00 = a11 * a22 - a12 * a12;
    let c01 = a02 * a12 - a01 * a22;
    let c02 = a01 * a12 - a02 * a11;
    let c11 = a00 * a22 - a02 * a02;
    let c12 = a01 * a02 - a00 * a12;
    let c22 = a00 * a11 - a01 * a01;
    let det = a00 * c00 + a01 * c01 + a02 * c02;
    let l0 = (c00 * b0 + c01 * b1 + c02 * b2) / det;
    let l1 = (c01 * b0 + c11 * b1 + c12 * b2) / det;
    let l2 = (c02 * b0 + c12 * b1 + c22 * b2) / det;

    velocities[0] = v_o - (r0 * l0 + r1 * l1) * i_o;
    velocities[1] = v_h1 + (r0 * l0 - r2 * l2) * i_h;
    velocities[2] = v_h2 + (r1 * l1 + r2 * l2) * i_h;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::ConstraintSet;
    use crate::topology::Topology;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn canonical_water(p: &SettleParams, origin: Vec3) -> [Vec3; 3] {
        // O on +Y at ra from COM, hydrogens at (∓rc, −rb).
        [
            origin + v3(0.0, p.ra, 0.0),
            origin + v3(-p.rc, -p.rb, 0.0),
            origin + v3(p.rc, -p.rb, 0.0),
        ]
    }

    fn bond_errors(p: &SettleParams, pbc: &PbcBox, w: &[Vec3; 3]) -> (f64, f64, f64) {
        let oh1 = pbc.min_image(w[0], w[1]).norm() - p.d_oh;
        let oh2 = pbc.min_image(w[0], w[2]).norm() - p.d_oh;
        let hh = pbc.min_image(w[1], w[2]).norm() - p.d_hh;
        (oh1.abs(), oh2.abs(), hh.abs())
    }

    #[test]
    fn geometry_construction() {
        let p = SettleParams::tip3p();
        // COM balance: m_O·ra = 2 m_H·rb.
        assert!((p.m_o * p.ra - 2.0 * p.m_h * p.rb).abs() < 1e-10);
        // Canonical coordinates reproduce the bond lengths.
        let pbc = PbcBox::cubic(20.0);
        let w = canonical_water(&p, v3(10.0, 10.0, 10.0));
        let (e1, e2, e3) = bond_errors(&p, &pbc, &w);
        assert!(e1 < 1e-12 && e2 < 1e-12 && e3 < 1e-12);
    }

    #[test]
    fn settle_restores_rigid_geometry() {
        let p = SettleParams::tip3p();
        let pbc = PbcBox::cubic(20.0);
        let old = canonical_water(&p, v3(10.0, 10.0, 10.0));
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let mut new = old;
            for a in new.iter_mut() {
                *a += v3(
                    (rng.gen::<f64>() - 0.5) * 0.2,
                    (rng.gen::<f64>() - 0.5) * 0.2,
                    (rng.gen::<f64>() - 0.5) * 0.2,
                );
            }
            settle_positions(&p, &pbc, old, &mut new);
            let (e1, e2, e3) = bond_errors(&p, &pbc, &new);
            assert!(e1 < 1e-9 && e2 < 1e-9 && e3 < 1e-9, "errors {e1} {e2} {e3}");
        }
    }

    #[test]
    fn settle_preserves_center_of_mass() {
        let p = SettleParams::tip3p();
        let pbc = PbcBox::cubic(20.0);
        let old = canonical_water(&p, v3(10.0, 10.0, 10.0));
        let mut new = old;
        new[0] += v3(0.05, -0.08, 0.02);
        new[1] += v3(-0.03, 0.06, 0.04);
        new[2] += v3(0.07, 0.01, -0.05);
        let m = [p.m_o, p.m_h, p.m_h];
        let com_before: Vec3 =
            new.iter().zip(&m).map(|(r, &mm)| *r * mm).sum::<Vec3>() / (p.m_o + 2.0 * p.m_h);
        settle_positions(&p, &pbc, old, &mut new);
        let com_after: Vec3 =
            new.iter().zip(&m).map(|(r, &mm)| *r * mm).sum::<Vec3>() / (p.m_o + 2.0 * p.m_h);
        assert!((com_before - com_after).norm() < 1e-10);
    }

    #[test]
    fn settle_agrees_with_shake() {
        let p = SettleParams::tip3p();
        let pbc = PbcBox::cubic(20.0);
        let top = Topology {
            masses: vec![p.m_o, p.m_h, p.m_h],
            charges: vec![0.0; 3],
            lj_types: vec![0; 3],
            waters: vec![[0, 1, 2]],
            ..Default::default()
        };
        let cs = ConstraintSet::from_topology(&top, true, p.d_oh, p.d_hh);
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..20 {
            let old = canonical_water(&p, v3(10.0, 10.0, 10.0));
            let mut displaced = old;
            for a in displaced.iter_mut() {
                *a += v3(
                    (rng.gen::<f64>() - 0.5) * 0.1,
                    (rng.gen::<f64>() - 0.5) * 0.1,
                    (rng.gen::<f64>() - 0.5) * 0.1,
                );
            }
            let mut via_settle = displaced;
            settle_positions(&p, &pbc, old, &mut via_settle);
            let mut via_shake = displaced.to_vec();
            cs.shake_positions(&pbc, &old, &mut via_shake, 1e-14, 10_000);
            for (a, b) in via_settle.iter().zip(&via_shake) {
                assert!(
                    (*a - *b).norm() < 5e-5,
                    "trial {trial}: SETTLE {a:?} vs SHAKE {b:?}"
                );
            }
        }
    }

    #[test]
    fn settle_handles_rotated_and_translated_waters() {
        let p = SettleParams::tip3p();
        let pbc = PbcBox::cubic(20.0);
        // Rotate the canonical water by an arbitrary rotation.
        let rot = |v: Vec3| {
            let (s1, c1) = 0.7f64.sin_cos();
            let (s2, c2) = 1.3f64.sin_cos();
            let v = v3(v.x * c1 - v.y * s1, v.x * s1 + v.y * c1, v.z);
            v3(v.x, v.y * c2 - v.z * s2, v.y * s2 + v.z * c2)
        };
        let base = canonical_water(&p, Vec3::ZERO);
        let old = [
            rot(base[0] - Vec3::ZERO) + v3(4.0, 6.0, 9.0),
            rot(base[1]) + v3(4.0, 6.0, 9.0),
            rot(base[2]) + v3(4.0, 6.0, 9.0),
        ];
        let mut new = old;
        new[1] += v3(0.09, -0.04, 0.06);
        new[2] += v3(-0.02, 0.08, -0.03);
        settle_positions(&p, &pbc, old, &mut new);
        let (e1, e2, e3) = bond_errors(&p, &pbc, &new);
        assert!(e1 < 1e-9 && e2 < 1e-9 && e3 < 1e-9);
    }

    #[test]
    fn settle_across_periodic_boundary() {
        let p = SettleParams::tip3p();
        let pbc = PbcBox::cubic(20.0);
        // Water straddling the box wall.
        let old = [
            pbc.wrap(v3(19.95, 10.0, 10.0) + v3(0.0, p.ra, 0.0)),
            pbc.wrap(v3(19.95 - p.rc, 10.0 - p.rb, 10.0)),
            pbc.wrap(v3(19.95 + p.rc, 10.0 - p.rb, 10.0)),
        ];
        let mut new = old;
        new[0] += v3(0.05, 0.02, -0.03);
        new[2] += v3(-0.04, 0.05, 0.02);
        settle_positions(&p, &pbc, old, &mut new);
        let (e1, e2, e3) = bond_errors(&p, &pbc, &new);
        assert!(e1 < 1e-9 && e2 < 1e-9 && e3 < 1e-9, "{e1} {e2} {e3}");
    }

    /// The Gauss–Seidel sweep loop the closed form replaced (iterated to
    /// 1e-12), kept verbatim as its oracle.
    fn settle_velocities_sweep(
        p: &SettleParams,
        pbc: &PbcBox,
        positions: [Vec3; 3],
        velocities: &mut [Vec3; 3],
    ) {
        let inv_m = [1.0 / p.m_o, 1.0 / p.m_h, 1.0 / p.m_h];
        let bonds = [(0usize, 1usize), (0, 2), (1, 2)];
        for _ in 0..64 {
            let mut worst: f64 = 0.0;
            for &(i, j) in &bonds {
                let r = pbc.min_image(positions[i], positions[j]);
                let v = velocities[i] - velocities[j];
                let rv = r.dot(v);
                worst = worst.max(rv.abs());
                let k = rv / (r.norm_sq() * (inv_m[i] + inv_m[j]));
                velocities[i] -= r * (k * inv_m[i]);
                velocities[j] += r * (k * inv_m[j]);
            }
            if worst < 1e-12 {
                return;
            }
        }
    }

    #[test]
    fn closed_form_velocities_match_the_sweep_oracle() {
        let p = SettleParams::tip3p();
        let pbc = PbcBox::cubic(20.0);
        let m = [p.m_o, p.m_h, p.m_h];
        let mut rng = StdRng::seed_from_u64(23);
        let mut gauss = move || {
            // Box–Muller.
            let (u1, u2): (f64, f64) = (rng.gen::<f64>().max(1e-300), rng.gen());
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        let rot = |v: Vec3, a: f64, b: f64| {
            let (s1, c1) = a.sin_cos();
            let (s2, c2) = b.sin_cos();
            let v = v3(v.x * c1 - v.y * s1, v.x * s1 + v.y * c1, v.z);
            v3(v.x, v.y * c2 - v.z * s2, v.y * s2 + v.z * c2)
        };
        let base = canonical_water(&p, Vec3::ZERO);
        for trial in 0..200 {
            // Random orientation; every fourth water has its center of
            // mass on the x seam, so after wrapping its atoms sit on
            // opposite box faces.
            let (a, b) = (gauss() * 3.0, gauss() * 3.0);
            let origin = if trial % 4 == 0 {
                v3(20.0, 10.0 + gauss(), 10.0 + gauss())
            } else {
                v3(10.0 + gauss(), 10.0 + gauss(), 10.0 + gauss())
            };
            let pos = [0, 1, 2].map(|i| pbc.wrap(origin + rot(base[i], a, b)));
            if trial % 4 == 0 {
                let spread = (pos[1] - pos[2]).max_abs().max((pos[0] - pos[1]).max_abs());
                assert!(spread > 10.0, "water {trial} does not straddle the seam");
            }
            let v0 = [0, 1, 2].map(|i| v3(gauss(), gauss(), gauss()) * (1.0 / m[i].sqrt()));

            let mut got = v0;
            settle_velocities(&p, &pbc, pos, &mut got);
            let mut want = v0;
            settle_velocities_sweep(&p, &pbc, pos, &mut want);

            let scale = v0.iter().map(|v| v.norm()).fold(0.0, f64::max);
            for i in 0..3 {
                assert!(
                    (got[i] - want[i]).norm() <= 1e-10 * scale,
                    "trial {trial} atom {i}: {:?} vs {:?}",
                    got[i],
                    want[i]
                );
            }
            for (i, j) in [(0, 1), (0, 2), (1, 2)] {
                let r = pbc.min_image(pos[i], pos[j]);
                let v = got[i] - got[j];
                assert!(
                    r.dot(v).abs() <= 1e-12 * r.norm() * v.norm(),
                    "trial {trial} bond ({i},{j}): r.v = {:e}",
                    r.dot(v)
                );
            }
            let mom = |v: &[Vec3; 3]| v[0] * m[0] + v[1] * m[1] + v[2] * m[2];
            assert!(
                (mom(&got) - mom(&v0)).norm() <= 1e-14 * p.m_o * scale,
                "trial {trial}: momentum moved by {:e}",
                (mom(&got) - mom(&v0)).norm()
            );
        }
    }

    #[test]
    fn velocity_projection_kills_internal_motion() {
        let p = SettleParams::tip3p();
        let pbc = PbcBox::cubic(20.0);
        let pos = canonical_water(&p, v3(10.0, 10.0, 10.0));
        let mut vel = [v3(0.3, -0.2, 0.1), v3(-0.5, 0.4, 0.2), v3(0.2, 0.1, -0.6)];
        let p_before = vel[0] * p.m_o + (vel[1] + vel[2]) * p.m_h;
        settle_velocities(&p, &pbc, pos, &mut vel);
        for (i, j) in [(0, 1), (0, 2), (1, 2)] {
            let r = pbc.min_image(pos[i], pos[j]);
            assert!(r.dot(vel[i] - vel[j]).abs() < 1e-10, "bond ({i},{j})");
        }
        let p_after = vel[0] * p.m_o + (vel[1] + vel[2]) * p.m_h;
        assert!((p_before - p_after).norm() < 1e-10);
    }
}
