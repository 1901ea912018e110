//! 3D torus topology: coordinates, node ids, and dimension-ordered routing.
//!
//! Anton 2 machines are built as 3D tori (the 512-node machine is 8×8×8);
//! packets route dimension-by-dimension with wraparound, taking the shorter
//! way around each ring.

use serde::{Deserialize, Serialize};

/// Node id within a torus (0-based, row-major x → y → z).
pub type NodeId = u32;

/// One of the six torus link directions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dir {
    XPlus,
    XMinus,
    YPlus,
    YMinus,
    ZPlus,
    ZMinus,
}

impl Dir {
    pub const ALL: [Dir; 6] = [
        Dir::XPlus,
        Dir::XMinus,
        Dir::YPlus,
        Dir::YMinus,
        Dir::ZPlus,
        Dir::ZMinus,
    ];

    /// Index 0..6, for per-link arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Dir::XPlus => 0,
            Dir::XMinus => 1,
            Dir::YPlus => 2,
            Dir::YMinus => 3,
            Dir::ZPlus => 4,
            Dir::ZMinus => 5,
        }
    }

    /// The opposite direction.
    pub fn opposite(self) -> Dir {
        match self {
            Dir::XPlus => Dir::XMinus,
            Dir::XMinus => Dir::XPlus,
            Dir::YPlus => Dir::YMinus,
            Dir::YMinus => Dir::YPlus,
            Dir::ZPlus => Dir::ZMinus,
            Dir::ZMinus => Dir::ZPlus,
        }
    }
}

/// Integer coordinates of a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Coord {
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

/// A 3D torus of `nx × ny × nz` nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Torus {
    pub nx: u32,
    pub ny: u32,
    pub nz: u32,
}

impl Torus {
    pub fn new(nx: u32, ny: u32, nz: u32) -> Self {
        assert!(nx >= 1 && ny >= 1 && nz >= 1);
        Torus { nx, ny, nz }
    }

    /// A cube-ish torus with exactly `n` nodes (n must have an integer cube
    /// root or factor as a×a×b); used by the scaling sweeps.
    pub fn for_nodes(n: u32) -> Self {
        assert!(n >= 1);
        let cube = (n as f64).cbrt().round() as u32;
        if cube * cube * cube == n {
            return Torus::new(cube, cube, cube);
        }
        // Find the most balanced factorization a ≥ b ≥ c with a·b·c = n.
        let mut best = (n, 1, 1);
        let mut best_score = n; // max dimension; smaller is better
        for a in 1..=n {
            if !n.is_multiple_of(a) {
                continue;
            }
            let rest = n / a;
            for b in 1..=rest {
                if !rest.is_multiple_of(b) {
                    continue;
                }
                let c = rest / b;
                let score = a.max(b).max(c);
                if score < best_score {
                    best_score = score;
                    best = (a, b, c);
                }
            }
        }
        Torus::new(best.0, best.1, best.2)
    }

    pub fn n_nodes(&self) -> u32 {
        self.nx * self.ny * self.nz
    }

    /// Total directed links (6 per node, but rings of length 1 have none,
    /// and rings of length 2 still have 2 distinct directed links per node
    /// pair in this model).
    pub fn n_links(&self) -> usize {
        self.n_nodes() as usize * 6
    }

    #[inline]
    pub fn coord(&self, id: NodeId) -> Coord {
        debug_assert!(id < self.n_nodes());
        Coord {
            x: id % self.nx,
            y: (id / self.nx) % self.ny,
            z: id / (self.nx * self.ny),
        }
    }

    #[inline]
    pub fn id(&self, c: Coord) -> NodeId {
        debug_assert!(c.x < self.nx && c.y < self.ny && c.z < self.nz);
        c.x + self.nx * (c.y + self.ny * c.z)
    }

    /// The neighbor of `id` along `dir` (with wraparound).
    pub fn neighbor(&self, id: NodeId, dir: Dir) -> NodeId {
        let c = self.coord(id);
        let step = |v: u32, n: u32, plus: bool| {
            if plus {
                (v + 1) % n
            } else {
                (v + n - 1) % n
            }
        };
        let nc = match dir {
            Dir::XPlus => Coord {
                x: step(c.x, self.nx, true),
                ..c
            },
            Dir::XMinus => Coord {
                x: step(c.x, self.nx, false),
                ..c
            },
            Dir::YPlus => Coord {
                y: step(c.y, self.ny, true),
                ..c
            },
            Dir::YMinus => Coord {
                y: step(c.y, self.ny, false),
                ..c
            },
            Dir::ZPlus => Coord {
                z: step(c.z, self.nz, true),
                ..c
            },
            Dir::ZMinus => Coord {
                z: step(c.z, self.nz, false),
                ..c
            },
        };
        self.id(nc)
    }

    /// Signed shortest ring displacement from `a` to `b` on a ring of `n`.
    fn ring_delta(a: u32, b: u32, n: u32) -> i32 {
        let fwd = (b + n - a) % n;
        let bwd = n - fwd;
        if fwd == 0 {
            0
        } else if fwd <= bwd {
            fwd as i32
        } else {
            -(bwd as i32)
        }
    }

    /// Minimal hop count between two nodes.
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        let ca = self.coord(a);
        let cb = self.coord(b);
        (Self::ring_delta(ca.x, cb.x, self.nx).unsigned_abs())
            + Self::ring_delta(ca.y, cb.y, self.ny).unsigned_abs()
            + Self::ring_delta(ca.z, cb.z, self.nz).unsigned_abs()
    }

    /// Dimension-ordered route from `src` to `dst`: the sequence of
    /// `(node, outgoing direction)` pairs. Empty for `src == dst`.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Vec<(NodeId, Dir)> {
        self.route_with_order(src, dst, [0, 1, 2])
    }

    /// Minimal route visiting the dimensions in the given order (a
    /// permutation of `[0, 1, 2]` = x, y, z). All orders give the same hop
    /// count; the *links* differ, which is what routing-policy ablations
    /// probe.
    pub fn route_with_order(&self, src: NodeId, dst: NodeId, order: [u8; 3]) -> Vec<(NodeId, Dir)> {
        let mut path = Vec::with_capacity(self.hops(src, dst) as usize);
        self.walk_route(src, dst, order, |node, dir| path.push((node, dir)));
        path
    }

    /// [`Torus::route_with_order`] as directed-link indices
    /// ([`Torus::link_index`]), appended to `out` — the form the network
    /// model stores, many routes to one buffer.
    pub fn route_links_into(&self, src: NodeId, dst: NodeId, order: [u8; 3], out: &mut Vec<u32>) {
        self.walk_route(src, dst, order, |node, dir| {
            out.push(self.link_index(node, dir) as u32);
        });
    }

    /// Calls `visit(node, outgoing direction)` for every hop of the minimal
    /// route from `src` to `dst` that takes the dimensions in `order`.
    fn walk_route(
        &self,
        src: NodeId,
        dst: NodeId,
        order: [u8; 3],
        mut visit: impl FnMut(NodeId, Dir),
    ) {
        let cs = self.coord(src);
        let cd = self.coord(dst);
        let deltas = [
            (
                Self::ring_delta(cs.x, cd.x, self.nx),
                Dir::XPlus,
                Dir::XMinus,
            ),
            (
                Self::ring_delta(cs.y, cd.y, self.ny),
                Dir::YPlus,
                Dir::YMinus,
            ),
            (
                Self::ring_delta(cs.z, cd.z, self.nz),
                Dir::ZPlus,
                Dir::ZMinus,
            ),
        ];
        let mut cur = src;
        for &axis in &order {
            let (delta, plus, minus) = deltas[axis as usize];
            let dir = if delta >= 0 { plus } else { minus };
            for _ in 0..delta.unsigned_abs() {
                visit(cur, dir);
                cur = self.neighbor(cur, dir);
            }
        }
        debug_assert_eq!(cur, dst);
    }

    /// Maximum hop distance in the torus (its diameter).
    pub fn diameter(&self) -> u32 {
        self.nx / 2 + self.ny / 2 + self.nz / 2
    }

    /// Global directed-link index for `(node, dir)`.
    #[inline]
    pub fn link_index(&self, node: NodeId, dir: Dir) -> usize {
        node as usize * 6 + dir.index()
    }

    /// The node the directed link `link` (a [`Torus::link_index`]) leaves.
    #[inline]
    pub fn link_src(&self, link: usize) -> NodeId {
        (link / 6) as NodeId
    }

    /// The node the directed link `link` (a [`Torus::link_index`]) leads to.
    pub fn link_dst(&self, link: usize) -> NodeId {
        self.neighbor(self.link_src(link), Dir::ALL[link % 6])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_coord_roundtrip() {
        let t = Torus::new(4, 3, 5);
        for id in 0..t.n_nodes() {
            assert_eq!(t.id(t.coord(id)), id);
        }
    }

    #[test]
    fn neighbors_are_symmetric() {
        let t = Torus::new(4, 4, 4);
        for id in 0..t.n_nodes() {
            for dir in Dir::ALL {
                let n = t.neighbor(id, dir);
                assert_eq!(t.neighbor(n, dir.opposite()), id);
            }
        }
    }

    #[test]
    fn hops_known_values() {
        let t = Torus::new(8, 8, 8);
        let a = t.id(Coord { x: 0, y: 0, z: 0 });
        let b = t.id(Coord { x: 4, y: 0, z: 0 });
        assert_eq!(t.hops(a, b), 4);
        // Wraparound: 0 → 7 is one hop backwards.
        let c = t.id(Coord { x: 7, y: 7, z: 7 });
        assert_eq!(t.hops(a, c), 3);
        assert_eq!(t.hops(a, a), 0);
        assert_eq!(t.diameter(), 12);
    }

    #[test]
    fn route_length_matches_hops_and_reaches_dst() {
        let t = Torus::new(4, 6, 2);
        for src in [0u32, 5, 17, 40] {
            for dst in [0u32, 3, 21, 47] {
                let route = t.route(src, dst);
                assert_eq!(route.len() as u32, t.hops(src, dst), "{src}->{dst}");
                // Walk the route.
                let mut cur = src;
                for &(node, dir) in &route {
                    assert_eq!(node, cur);
                    cur = t.neighbor(cur, dir);
                }
                assert_eq!(cur, dst);
            }
        }
    }

    #[test]
    fn link_routes_match_node_routes_in_every_order() {
        let t = Torus::new(4, 6, 2);
        let mut links = vec![7u32]; // appended to, never cleared
        for src in 0..t.n_nodes() {
            for dst in [0u32, 3, 21, 47] {
                for order in crate::network::DIM_ORDERS {
                    let route = t.route_with_order(src, dst, order);
                    links.truncate(1);
                    t.route_links_into(src, dst, order, &mut links);
                    assert_eq!(links[0], 7);
                    assert_eq!(links.len() - 1, route.len());
                    let mut cur = src;
                    for (&(node, dir), &link) in route.iter().zip(&links[1..]) {
                        assert_eq!(node, cur, "{src}->{dst} {order:?}");
                        assert_eq!(link as usize, t.link_index(node, dir));
                        assert_eq!(t.link_src(link as usize), node);
                        cur = t.neighbor(cur, dir);
                        assert_eq!(t.link_dst(link as usize), cur);
                    }
                    assert_eq!(cur, dst);
                }
            }
        }
    }

    #[test]
    fn route_never_revisits_a_node() {
        let t = Torus::new(8, 8, 8);
        let route = t.route(0, t.id(Coord { x: 5, y: 6, z: 3 }));
        let mut seen = std::collections::BTreeSet::new();
        for &(node, _) in &route {
            assert!(seen.insert(node), "revisited node {node}");
        }
    }

    #[test]
    fn route_takes_shorter_way_around() {
        let t = Torus::new(8, 1, 1);
        // 0 → 6 should go backwards (2 hops), not forwards (6 hops).
        let route = t.route(0, 6);
        assert_eq!(route.len(), 2);
        assert_eq!(route[0].1, Dir::XMinus);
    }

    #[test]
    fn for_nodes_factorizations() {
        assert_eq!(Torus::for_nodes(512), Torus::new(8, 8, 8));
        assert_eq!(Torus::for_nodes(64), Torus::new(4, 4, 4));
        assert_eq!(Torus::for_nodes(8), Torus::new(2, 2, 2));
        assert_eq!(Torus::for_nodes(1).n_nodes(), 1);
        // Non-cube counts still factor completely.
        let t = Torus::for_nodes(128);
        assert_eq!(t.n_nodes(), 128);
        assert!(t.nx.max(t.ny).max(t.nz) <= 8);
    }

    #[test]
    fn diameter_is_achieved() {
        let t = Torus::new(4, 4, 4);
        let far = t.id(Coord { x: 2, y: 2, z: 2 });
        assert_eq!(t.hops(0, far), t.diameter());
    }

    #[test]
    fn link_indices_unique() {
        let t = Torus::new(3, 3, 3);
        let mut seen = std::collections::BTreeSet::new();
        for id in 0..t.n_nodes() {
            for dir in Dir::ALL {
                assert!(seen.insert(t.link_index(id, dir)));
            }
        }
        assert_eq!(seen.len(), t.n_links());
    }
}
