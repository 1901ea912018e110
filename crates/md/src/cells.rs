//! Linked-cell spatial binning for neighbor-list construction.

use crate::pbc::PbcBox;
use crate::vec3::Vec3;

/// A uniform grid of cells over the periodic box, each at least as wide as
/// the interaction range, so that all neighbors of an atom lie in the 27
/// surrounding cells.
#[derive(Clone, Debug)]
pub struct CellGrid {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Atom indices grouped by cell, CSR-style.
    pub cell_start: Vec<usize>,
    pub atoms: Vec<u32>,
    pbc: PbcBox,
}

impl CellGrid {
    /// Number of cells along each axis for interaction `range` (Å).
    /// Returns `None` if the box is too small for the cell method (fewer
    /// than 3 cells on some axis), in which case callers fall back to an
    /// all-pairs scan.
    pub fn dims_for(pbc: &PbcBox, range: f64) -> Option<(usize, usize, usize)> {
        assert!(range > 0.0);
        let nx = (pbc.lx / range).floor() as usize;
        let ny = (pbc.ly / range).floor() as usize;
        let nz = (pbc.lz / range).floor() as usize;
        if nx < 3 || ny < 3 || nz < 3 {
            None
        } else {
            Some((nx, ny, nz))
        }
    }

    /// Bin wrapped `positions` into cells of size ≥ `range`, or `None`
    /// when the box is too small for the cell method (the same condition
    /// [`CellGrid::dims_for`] reports) — callers fall back to an
    /// all-pairs scan.
    pub fn build(pbc: &PbcBox, positions: &[Vec3], range: f64) -> Option<Self> {
        let (nx, ny, nz) = Self::dims_for(pbc, range)?;
        let ncells = nx * ny * nz;
        let mut counts = vec![0usize; ncells];
        let idx_of = |p: Vec3| -> usize {
            let w = pbc.wrap(p);
            let cx = ((w.x / pbc.lx * nx as f64) as usize).min(nx - 1);
            let cy = ((w.y / pbc.ly * ny as f64) as usize).min(ny - 1);
            let cz = ((w.z / pbc.lz * nz as f64) as usize).min(nz - 1);
            (cx * ny + cy) * nz + cz
        };
        for &p in positions {
            counts[idx_of(p)] += 1;
        }
        let mut cell_start = vec![0usize; ncells + 1];
        for c in 0..ncells {
            cell_start[c + 1] = cell_start[c] + counts[c];
        }
        let mut cursor = cell_start[..ncells].to_vec();
        let mut atoms = vec![0u32; positions.len()];
        for (i, &p) in positions.iter().enumerate() {
            let c = idx_of(p);
            atoms[cursor[c]] = i as u32;
            cursor[c] += 1;
        }
        Some(CellGrid {
            nx,
            ny,
            nz,
            cell_start,
            atoms,
            pbc: *pbc,
        })
    }

    /// Cell index of a (wrapped) position.
    pub fn cell_of(&self, p: Vec3) -> usize {
        let w = self.pbc.wrap(p);
        let cx = ((w.x / self.pbc.lx * self.nx as f64) as usize).min(self.nx - 1);
        let cy = ((w.y / self.pbc.ly * self.ny as f64) as usize).min(self.ny - 1);
        let cz = ((w.z / self.pbc.lz * self.nz as f64) as usize).min(self.nz - 1);
        (cx * self.ny + cy) * self.nz + cz
    }

    /// Atoms in cell `c`.
    pub fn cell(&self, c: usize) -> &[u32] {
        &self.atoms[self.cell_start[c]..self.cell_start[c + 1]]
    }

    /// The 27 periodic cells around (and including) cell `c`.
    pub fn neighborhood(&self, c: usize) -> [usize; 27] {
        let nz = self.nz;
        let ny = self.ny;
        let cz = c % nz;
        let cy = (c / nz) % ny;
        let cx = c / (ny * nz);
        let mut out = [0usize; 27];
        let mut k = 0;
        for dx in -1i64..=1 {
            let x = (cx as i64 + dx).rem_euclid(self.nx as i64) as usize;
            for dy in -1i64..=1 {
                let y = (cy as i64 + dy).rem_euclid(ny as i64) as usize;
                for dz in -1i64..=1 {
                    let z = (cz as i64 + dz).rem_euclid(nz as i64) as usize;
                    out[k] = (x * ny + y) * nz + z;
                    k += 1;
                }
            }
        }
        out
    }

    pub fn n_cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Half-shell traversal: the periodic neighbor cells of `c` with a
    /// *higher* cell index, sorted ascending. Together with the own-cell
    /// `i < j` rule this examines every adjacent unordered cell pair exactly
    /// once (each pair is handled by its lower-indexed cell), so a neighbor
    /// search touches ~14 cells per cell instead of 27 and every candidate
    /// pair gets exactly one distance check.
    ///
    /// Returns the neighbor cells in `out[..len]`; 13 on average, but the
    /// exact count per cell depends on how the periodic wrap lands.
    pub fn forward_neighbors(&self, c: usize, out: &mut [usize; 26]) -> usize {
        let mut len = 0;
        for n in self.neighborhood(c) {
            if n > c {
                out[len] = n;
                len += 1;
            }
        }
        out[..len].sort_unstable();
        len
    }

    /// [`CellGrid::forward_neighbors`] with the periodic shift of each
    /// relation: for a pair `(a, b)` with `a` in cell `c` and `b` in the
    /// returned cell, `(wrap(pa) − wrap(pb)) − shift` is the displacement
    /// through this cell adjacency — the minimum image whenever the pair is
    /// within one cell width, with no divisions or rounding. The shift is
    /// `+L` on an axis where the relation wraps high (raw coordinate ≥ n),
    /// `−L` where it wraps low (raw coordinate < 0), else 0. Entries are
    /// sorted ascending by cell index, matching `forward_neighbors`.
    pub fn forward_shifts(&self, c: usize, out: &mut [(usize, Vec3); 26]) -> usize {
        let nz = self.nz;
        let ny = self.ny;
        let nx = self.nx;
        let cz = c % nz;
        let cy = (c / nz) % ny;
        let cx = c / (ny * nz);
        let mut len = 0;
        for dx in -1i64..=1 {
            let rx = cx as i64 + dx;
            let (x, sx) = wrap_axis(rx, nx, self.pbc.lx);
            for dy in -1i64..=1 {
                let ry = cy as i64 + dy;
                let (y, sy) = wrap_axis(ry, ny, self.pbc.ly);
                for dz in -1i64..=1 {
                    let rz = cz as i64 + dz;
                    let (z, sz) = wrap_axis(rz, nz, self.pbc.lz);
                    let n = (x * ny + y) * nz + z;
                    if n > c {
                        out[len] = (n, Vec3::new(sx, sy, sz));
                        len += 1;
                    }
                }
            }
        }
        out[..len].sort_unstable_by_key(|e| e.0);
        len
    }
}

/// Wrap a raw cell coordinate onto `[0, n)` and report the box shift the
/// wrap implies for displacements computed `a − b` (see
/// [`CellGrid::forward_shifts`]).
#[inline]
fn wrap_axis(raw: i64, n: usize, l: f64) -> (usize, f64) {
    if raw < 0 {
        ((raw + n as i64) as usize, -l)
    } else if raw >= n as i64 {
        ((raw - n as i64) as usize, l)
    } else {
        (raw as usize, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::v3;

    #[test]
    fn every_atom_lands_in_exactly_one_cell() {
        let pbc = PbcBox::cubic(30.0);
        let positions: Vec<Vec3> = (0..500)
            .map(|i| {
                v3(
                    (i as f64 * 7.13) % 30.0,
                    (i as f64 * 3.77) % 30.0,
                    (i as f64 * 1.93) % 30.0,
                )
            })
            .collect();
        let g = CellGrid::build(&pbc, &positions, 10.0).unwrap();
        assert_eq!(g.atoms.len(), 500);
        let mut seen = vec![false; 500];
        for c in 0..g.n_cells() {
            for &a in g.cell(c) {
                assert!(!seen[a as usize], "atom {a} in two cells");
                seen[a as usize] = true;
                assert_eq!(g.cell_of(positions[a as usize]), c);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn dims_respect_range() {
        let pbc = PbcBox::new(30.0, 40.0, 50.0);
        let (nx, ny, nz) = CellGrid::dims_for(&pbc, 10.0).unwrap();
        assert_eq!((nx, ny, nz), (3, 4, 5));
        // Cells must be at least `range` wide.
        assert!(pbc.lx / nx as f64 >= 10.0);
    }

    #[test]
    fn small_box_reports_none() {
        let pbc = PbcBox::cubic(20.0);
        assert!(CellGrid::dims_for(&pbc, 10.0).is_none());
        assert!(CellGrid::dims_for(&pbc, 6.0).is_some());
    }

    #[test]
    fn neighborhood_has_27_unique_cells_when_grid_large() {
        let pbc = PbcBox::cubic(50.0);
        let g = CellGrid::build(&pbc, &[v3(1.0, 1.0, 1.0)], 10.0).unwrap();
        assert_eq!((g.nx, g.ny, g.nz), (5, 5, 5));
        let mut hood = g.neighborhood(0).to_vec();
        hood.sort_unstable();
        hood.dedup();
        assert_eq!(hood.len(), 27);
    }

    #[test]
    fn neighborhood_wraps_periodically() {
        let pbc = PbcBox::cubic(30.0);
        let g = CellGrid::build(&pbc, &[], 10.0).unwrap(); // 3×3×3
                                                           // With exactly 3 cells per axis, every neighborhood covers all cells.
        let mut hood = g.neighborhood(13).to_vec();
        hood.sort_unstable();
        hood.dedup();
        assert_eq!(hood.len(), 27);
        assert_eq!(hood, (0..27).collect::<Vec<_>>());
    }

    #[test]
    fn forward_neighbors_cover_each_cell_pair_once() {
        // Over all cells, the (c, c') forward pairs must enumerate every
        // unordered adjacent cell pair exactly once.
        for edge in [30.0, 50.0] {
            let pbc = PbcBox::cubic(edge);
            let g = CellGrid::build(&pbc, &[], 10.0).unwrap();
            let mut forward: Vec<(usize, usize)> = Vec::new();
            let mut scratch = [0usize; 26];
            for c in 0..g.n_cells() {
                let len = g.forward_neighbors(c, &mut scratch);
                assert!(scratch[..len].windows(2).all(|w| w[0] < w[1]));
                for &n in &scratch[..len] {
                    assert!(n > c);
                    forward.push((c, n));
                }
            }
            let mut unordered: Vec<(usize, usize)> = Vec::new();
            for c in 0..g.n_cells() {
                for n in g.neighborhood(c) {
                    if n != c {
                        unordered.push((c.min(n), c.max(n)));
                    }
                }
            }
            unordered.sort_unstable();
            unordered.dedup();
            forward.sort_unstable();
            assert_eq!(forward, unordered, "edge {edge}");
        }
    }

    #[test]
    fn forward_shifts_recover_the_minimum_image() {
        // For wrapped points in cells related by a forward shift, the
        // shift-corrected displacement must equal the true minimum image
        // whenever the pair is within one cell width — over both a 3³ grid
        // (every relation wraps somewhere) and a larger one.
        for edge in [30.0, 50.0] {
            let pbc = PbcBox::cubic(edge);
            let g = CellGrid::build(&pbc, &[], 10.0).unwrap();
            let w = edge / g.nx as f64;
            let point_in = |c: usize, fx: f64, fy: f64, fz: f64| {
                let cz = c % g.nz;
                let cy = (c / g.nz) % g.ny;
                let cx = c / (g.ny * g.nz);
                v3(
                    (cx as f64 + fx) * pbc.lx / g.nx as f64,
                    (cy as f64 + fy) * pbc.ly / g.ny as f64,
                    (cz as f64 + fz) * pbc.lz / g.nz as f64,
                )
            };
            let mut shifts = [(0usize, Vec3::ZERO); 26];
            let mut plain = [0usize; 26];
            for c in 0..g.n_cells() {
                let len = g.forward_shifts(c, &mut shifts);
                // Same cells, same order as the unshifted traversal.
                let plen = g.forward_neighbors(c, &mut plain);
                assert_eq!(len, plen);
                for (k, &(c2, shift)) in shifts[..len].iter().enumerate() {
                    assert_eq!(c2, plain[k]);
                    for (fa, fb) in [(0.1, 0.9), (0.5, 0.5), (0.95, 0.05)] {
                        let pa = point_in(c, fa, fa, fa);
                        let pb = point_in(c2, fb, fb, fb);
                        let d = (pa - pb) - shift;
                        let want = pbc.min_image(pa, pb);
                        if d.norm() < w {
                            assert!(
                                (d - want).norm() < 1e-9,
                                "edge {edge} c {c} c2 {c2}: {d:?} vs {want:?}"
                            );
                        } else {
                            // Out of range through this relation: the shifted
                            // distance must never underestimate the true one.
                            assert!(d.norm() + 1e-9 >= want.norm());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn atoms_near_boundary_bin_correctly() {
        let pbc = PbcBox::cubic(30.0);
        // A coordinate of exactly 30.0 wraps to 0.
        let g = CellGrid::build(&pbc, &[v3(30.0, 29.9999, -0.0001)], 10.0).unwrap();
        let c = g.cell_of(v3(30.0, 29.9999, -0.0001));
        assert_eq!(g.cell(c).len(), 1);
    }
}
