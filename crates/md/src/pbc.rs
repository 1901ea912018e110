//! Orthorhombic periodic boundary conditions.
//!
//! Anton's spatial decomposition assumes an orthorhombic (rectangular) box
//! mapped onto the 3D torus; we implement the same.

use crate::vec3::{v3, Vec3};
use serde::{Deserialize, Serialize};

/// An orthorhombic periodic simulation box with edge lengths in Å.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PbcBox {
    pub lx: f64,
    pub ly: f64,
    pub lz: f64,
}

impl PbcBox {
    /// A box with the given edge lengths (Å); all must be positive.
    pub fn new(lx: f64, ly: f64, lz: f64) -> Self {
        assert!(
            lx > 0.0 && ly > 0.0 && lz > 0.0,
            "box edges must be positive"
        );
        PbcBox { lx, ly, lz }
    }

    /// A cubic box with edge `l`.
    pub fn cubic(l: f64) -> Self {
        Self::new(l, l, l)
    }

    /// Edge lengths as a vector.
    #[inline]
    pub fn lengths(&self) -> Vec3 {
        v3(self.lx, self.ly, self.lz)
    }

    /// Box volume in Å³.
    #[inline]
    pub fn volume(&self) -> f64 {
        self.lx * self.ly * self.lz
    }

    /// Shortest edge; the pairwise cutoff must stay below half of this for
    /// the minimum-image convention to be valid.
    #[inline]
    pub fn min_edge(&self) -> f64 {
        self.lx.min(self.ly).min(self.lz)
    }

    /// Minimum-image displacement from `b` to `a` (i.e. `a − b`, wrapped).
    #[inline]
    pub fn min_image(&self, a: Vec3, b: Vec3) -> Vec3 {
        let mut d = a - b;
        d.x -= self.lx * (d.x / self.lx).round();
        d.y -= self.ly * (d.y / self.ly).round();
        d.z -= self.lz * (d.z / self.lz).round();
        d
    }

    /// Squared minimum-image distance between `a` and `b`.
    #[inline]
    pub fn dist_sq(&self, a: Vec3, b: Vec3) -> f64 {
        self.min_image(a, b).norm_sq()
    }

    /// Wrap a position into the primary cell `[0, L)³`.
    #[inline]
    pub fn wrap(&self, p: Vec3) -> Vec3 {
        let w = |x: f64, l: f64| {
            let r = x - l * (x / l).floor();
            // Guard against r == l from floating point when x is a tiny
            // negative number.
            if r >= l {
                r - l
            } else {
                r
            }
        };
        v3(w(p.x, self.lx), w(p.y, self.ly), w(p.z, self.lz))
    }

    /// Whether `p` lies in the primary cell.
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        (0.0..self.lx).contains(&p.x)
            && (0.0..self.ly).contains(&p.y)
            && (0.0..self.lz).contains(&p.z)
    }

    /// Fractional coordinates of `p` in `[0, 1)³` after wrapping.
    #[inline]
    pub fn fractional(&self, p: Vec3) -> Vec3 {
        let w = self.wrap(p);
        v3(w.x / self.lx, w.y / self.ly, w.z / self.lz)
    }
}

/// Branch-based minimum image for displacements of *wrapped* coordinates.
///
/// With both endpoints in `[0, L)` the raw difference lies in `(−L, L)`, so
/// a single compare-and-correct per axis recovers the minimum image without
/// the three divisions of [`PbcBox::min_image`]. Differs from the `round()`
/// form only at `|d| = L/2` exactly, which lies beyond any valid cutoff.
///
/// Used by the streaming kernel and by the all-pairs fallback of the list
/// build (`stream.rs`).
#[derive(Clone, Copy, Debug)]
pub struct HalfBox {
    lx: f64,
    ly: f64,
    lz: f64,
    hx: f64,
    hy: f64,
    hz: f64,
}

impl HalfBox {
    pub fn new(pbc: &PbcBox) -> Self {
        HalfBox {
            lx: pbc.lx,
            ly: pbc.ly,
            lz: pbc.lz,
            hx: 0.5 * pbc.lx,
            hy: 0.5 * pbc.ly,
            hz: 0.5 * pbc.lz,
        }
    }

    #[inline]
    pub fn fold(d: f64, l: f64, h: f64) -> f64 {
        if d > h {
            d - l
        } else if d < -h {
            d + l
        } else {
            d
        }
    }

    /// Minimum image of a raw difference of wrapped coordinates.
    #[inline]
    pub fn min_image(&self, d: Vec3) -> Vec3 {
        Vec3::new(
            Self::fold(d.x, self.lx, self.hx),
            Self::fold(d.y, self.ly, self.hy),
            Self::fold(d.z, self.lz, self.hz),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_image_within_half_box() {
        let b = PbcBox::new(10.0, 20.0, 30.0);
        let a = v3(9.5, 19.5, 29.5);
        let c = v3(0.5, 0.5, 0.5);
        let d = b.min_image(a, c);
        // Across the boundary the image distance is 1 in x, 1 in y, 1 in z.
        assert!((d.x - -1.0).abs() < 1e-12);
        assert!((d.y - -1.0).abs() < 1e-12);
        assert!((d.z - -1.0).abs() < 1e-12);
    }

    #[test]
    fn min_image_is_antisymmetric() {
        let b = PbcBox::cubic(12.0);
        let p = v3(1.0, 11.0, 6.0);
        let q = v3(10.0, 2.0, 5.5);
        let d1 = b.min_image(p, q);
        let d2 = b.min_image(q, p);
        assert!((d1 + d2).norm() < 1e-12);
    }

    #[test]
    fn min_image_components_bounded_by_half_edge() {
        let b = PbcBox::new(7.0, 9.0, 11.0);
        for i in 0..50 {
            let p = v3(
                i as f64 * 1.37 % 7.0,
                i as f64 * 2.11 % 9.0,
                i as f64 * 0.53 % 11.0,
            );
            let q = v3(
                i as f64 * 0.91 % 7.0,
                i as f64 * 1.73 % 9.0,
                i as f64 * 2.97 % 11.0,
            );
            let d = b.min_image(p, q);
            assert!(d.x.abs() <= 3.5 + 1e-12);
            assert!(d.y.abs() <= 4.5 + 1e-12);
            assert!(d.z.abs() <= 5.5 + 1e-12);
        }
    }

    #[test]
    fn wrap_idempotent_and_contained() {
        let b = PbcBox::new(5.0, 6.0, 7.0);
        for p in [
            v3(-0.1, 6.1, 13.9),
            v3(100.0, -100.0, 3.5),
            v3(4.999999, 0.0, -1e-15),
        ] {
            let w = b.wrap(p);
            assert!(b.contains(w), "{p:?} wrapped to {w:?}");
            let w2 = b.wrap(w);
            assert!((w - w2).norm() < 1e-12);
        }
    }

    #[test]
    fn wrap_preserves_min_image_distances() {
        let b = PbcBox::cubic(9.0);
        let p = v3(-3.0, 15.0, 4.0);
        let q = v3(2.0, 2.0, 2.0);
        let before = b.dist_sq(p, q);
        let after = b.dist_sq(b.wrap(p), b.wrap(q));
        assert!((before - after).abs() < 1e-9);
    }

    #[test]
    fn fractional_in_unit_cube() {
        let b = PbcBox::new(4.0, 8.0, 16.0);
        let f = b.fractional(v3(2.0, -2.0, 40.0));
        assert!((f.x - 0.5).abs() < 1e-12);
        assert!((f.y - 0.75).abs() < 1e-12);
        assert!((f.z - 0.5).abs() < 1e-12);
    }

    #[test]
    fn volume_and_edges() {
        let b = PbcBox::new(2.0, 3.0, 4.0);
        assert_eq!(b.volume(), 24.0);
        assert_eq!(b.min_edge(), 2.0);
        assert_eq!(b.lengths(), v3(2.0, 3.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_edge_rejected() {
        PbcBox::new(0.0, 1.0, 1.0);
    }
}
