//! Build-once reference neighbor list — the oracle the production stream
//! is checked against.
//!
//! A half list (each unordered pair stored once, under the lower-indexed
//! atom, CSR layout) of every pair within `cutoff + skin`, found by a
//! direct serial scan: cell pairs from the index-only half-shell walk
//! ([`CellGrid::forward_neighbors`]) when the box holds at least 3 cells
//! per axis, all pairs otherwise, every candidate measured with the
//! division-form [`PbcBox::dist_sq`] on the raw positions. Rows are sorted,
//! so the list is a pure function of its inputs.
//!
//! It deliberately shares no algorithm with [`crate::stream`], which owns
//! everything a running engine needs (cell-major permutation, exclusion
//! baking, rebuild triggers): no wrapped snapshot, no shift-based minimum
//! image, no exclusions, no reuse across steps.
//! `pairkernel::nonbonded_forces` and `pairkernel::count_interactions` walk
//! it in tests and in the co-sim's functional checks.

use crate::cells::CellGrid;
use crate::pbc::PbcBox;
use crate::vec3::Vec3;

/// A half neighbor list of `positions` as they were at build time.
#[derive(Clone, Debug)]
pub struct NeighborList {
    /// CSR row starts, length `n_atoms + 1`.
    pub start: Vec<usize>,
    /// Partner indices `j` (always `> i` for row `i`), sorted within a row.
    pub partners: Vec<u32>,
    /// Interaction range the list was built for (cutoff + skin).
    pub range: f64,
}

impl NeighborList {
    /// Build the list for `positions` with interaction `cutoff` and buffer
    /// `skin`.
    pub fn build(pbc: &PbcBox, positions: &[Vec3], cutoff: f64, skin: f64) -> Self {
        let range = cutoff + skin;
        let range_sq = range * range;
        let n = positions.len();
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut test = |a: u32, b: u32| {
            if pbc.dist_sq(positions[a as usize], positions[b as usize]) < range_sq {
                rows[a.min(b) as usize].push(a.max(b));
            }
        };
        if let Some(grid) = CellGrid::build(pbc, positions, range) {
            // Each unordered pair of adjacent cells is visited once, from
            // its lower-indexed cell, so every candidate is measured once.
            let mut fwd = [0usize; 26];
            for c in 0..grid.n_cells() {
                let own = grid.cell(c);
                for (k, &a) in own.iter().enumerate() {
                    for &b in &own[k + 1..] {
                        test(a, b);
                    }
                }
                let len = grid.forward_neighbors(c, &mut fwd);
                for &c2 in &fwd[..len] {
                    for &a in own {
                        for &b in grid.cell(c2) {
                            test(a, b);
                        }
                    }
                }
            }
        } else {
            for a in 0..n as u32 {
                for b in a + 1..n as u32 {
                    test(a, b);
                }
            }
        }

        let mut start = Vec::with_capacity(n + 1);
        let mut partners = Vec::new();
        start.push(0);
        for row in &mut rows {
            row.sort_unstable();
            partners.extend_from_slice(row);
            start.push(partners.len());
        }
        NeighborList {
            start,
            partners,
            range,
        }
    }

    /// Number of stored (unordered) pairs.
    pub fn n_pairs(&self) -> usize {
        self.partners.len()
    }

    /// Partners of atom `i` (all with index > `i`).
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.partners[self.start[i]..self.start[i + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::v3;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_positions(n: usize, l: f64, seed: u64) -> Vec<Vec3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                v3(
                    rng.gen::<f64>() * l,
                    rng.gen::<f64>() * l,
                    rng.gen::<f64>() * l,
                )
            })
            .collect()
    }

    fn brute_force_pairs(pbc: &PbcBox, pos: &[Vec3], range: f64) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for i in 0..pos.len() {
            for j in (i + 1)..pos.len() {
                if pbc.dist_sq(pos[i], pos[j]) < range * range {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    fn list_pairs(nl: &NeighborList) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for i in 0..nl.start.len() - 1 {
            for &j in nl.row(i) {
                out.push((i as u32, j));
            }
        }
        out
    }

    #[test]
    fn matches_brute_force_large_box() {
        // Sorted rows in row order are exactly the brute-force (i, j) scan
        // order, so neither side needs sorting.
        let pbc = PbcBox::cubic(40.0);
        let pos = random_positions(300, 40.0, 3);
        let nl = NeighborList::build(&pbc, &pos, 9.0, 1.0);
        assert_eq!(list_pairs(&nl), brute_force_pairs(&pbc, &pos, 10.0));

        // Non-cubic box, atoms up to two box lengths outside the primary
        // cell: binning wraps them, the distance test takes the minimum
        // image of the raw coordinates.
        let pbc = PbcBox::new(40.0, 33.0, 47.0);
        let mut pos = random_positions(200, 33.0, 15);
        for (k, p) in pos.iter_mut().enumerate() {
            *p += v3(40.0, -33.0, 94.0) * (k % 3) as f64;
        }
        let nl = NeighborList::build(&pbc, &pos, 9.0, 1.0);
        assert_eq!(list_pairs(&nl), brute_force_pairs(&pbc, &pos, 10.0));
    }

    #[test]
    fn matches_brute_force_small_box_fallback() {
        let pbc = PbcBox::cubic(18.0);
        let pos = random_positions(100, 18.0, 5);
        let nl = NeighborList::build(&pbc, &pos, 7.0, 1.0); // 18/8 = 2 cells → fallback
        assert_eq!(list_pairs(&nl), brute_force_pairs(&pbc, &pos, 8.0));
    }

    #[test]
    fn rows_are_sorted() {
        let pbc = PbcBox::cubic(40.0);
        let pos = random_positions(300, 40.0, 7);
        let nl = NeighborList::build(&pbc, &pos, 9.0, 1.0);
        for i in 0..pos.len() {
            assert!(nl.row(i).windows(2).all(|w| w[0] < w[1]), "row {i}");
        }
    }

    #[test]
    fn half_list_has_each_pair_once() {
        let pbc = PbcBox::cubic(40.0);
        let pos = random_positions(200, 40.0, 9);
        let nl = NeighborList::build(&pbc, &pos, 9.0, 1.0);
        let mut pairs = list_pairs(&nl);
        let before = pairs.len();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), before);
        for &(i, j) in &pairs {
            assert!(j > i);
        }
    }

    #[test]
    fn skin_keeps_list_valid_while_atoms_drift() {
        let pbc = PbcBox::cubic(40.0);
        let mut pos = random_positions(150, 40.0, 13);
        let cutoff = 9.0;
        let nl = NeighborList::build(&pbc, &pos, cutoff, 1.0);
        // Drift everything by just under skin/2 in random directions.
        let mut rng = StdRng::seed_from_u64(1);
        for p in &mut pos {
            let d = v3(
                rng.gen::<f64>() - 0.5,
                rng.gen::<f64>() - 0.5,
                rng.gen::<f64>() - 0.5,
            );
            *p += d.normalized() * 0.49;
        }
        // Every pair now inside the *true* cutoff must be present in the
        // stale list.
        let inside = brute_force_pairs(&pbc, &pos, cutoff);
        let listed: std::collections::BTreeSet<_> = list_pairs(&nl).into_iter().collect();
        for pr in inside {
            assert!(listed.contains(&pr), "missing pair {pr:?}");
        }
    }

    #[test]
    fn deterministic_across_builds() {
        let pbc = PbcBox::cubic(40.0);
        let pos = random_positions(400, 40.0, 21);
        let a = NeighborList::build(&pbc, &pos, 9.0, 1.0);
        let b = NeighborList::build(&pbc, &pos, 9.0, 1.0);
        assert_eq!(a.start, b.start);
        assert_eq!(a.partners, b.partners);
    }
}
