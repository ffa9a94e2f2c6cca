//! Mesh topology: node identifiers, coordinates, neighbours and the static
//! Hamiltonian ring route used by SnackNoC transient data tokens.

use crate::routing::Dir;
use std::fmt;

/// Identifies a node (router + network interface pair) in the mesh.
///
/// Nodes are numbered row-major: node `y * cols + x` sits at column `x`,
/// row `y`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw row-major index.
    pub fn new(index: usize) -> Self {
        NodeId(index as u32)
    }

    /// Returns the raw row-major index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> usize {
        id.index()
    }
}

/// A `cols × rows` 2D mesh.
///
/// The coordinate convention is `x` = column growing **east**, `y` = row
/// growing **south** (row 0 is the north edge).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mesh {
    cols: u16,
    rows: u16,
}

impl Mesh {
    /// Creates a mesh with the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cols: u16, rows: u16) -> Self {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be non-zero");
        Mesh { cols, rows }
    }

    /// Number of columns (east-west extent).
    pub fn cols(&self) -> usize {
        self.cols as usize
    }

    /// Number of rows (north-south extent).
    pub fn rows(&self) -> usize {
        self.rows as usize
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.cols() * self.rows()
    }

    /// The node at column `x`, row `y`.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is out of bounds.
    pub fn node_at(&self, x: usize, y: usize) -> NodeId {
        assert!(x < self.cols() && y < self.rows(), "mesh coordinate out of bounds");
        NodeId::new(y * self.cols() + x)
    }

    /// The `(x, y)` coordinates of `node`.
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        let i = node.index();
        (i % self.cols(), i / self.cols())
    }

    /// The neighbour of `node` in direction `dir`, if one exists.
    ///
    /// `Dir::Local` has no neighbour and always returns `None`.
    pub fn neighbor(&self, node: NodeId, dir: Dir) -> Option<NodeId> {
        let (x, y) = self.coords(node);
        match dir {
            Dir::East if x + 1 < self.cols() => Some(self.node_at(x + 1, y)),
            Dir::West if x > 0 => Some(self.node_at(x - 1, y)),
            Dir::South if y + 1 < self.rows() => Some(self.node_at(x, y + 1)),
            Dir::North if y > 0 => Some(self.node_at(x, y - 1)),
            _ => None,
        }
    }

    /// Iterates over all nodes in row-major order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count()).map(NodeId::new)
    }

    /// The memory-controller corner nodes (paper Table IV: "2D 4x4 Mesh w.
    /// Corner MemCntrls"). Returns the four mesh corners, deduplicated for
    /// degenerate meshes.
    pub fn corner_nodes(&self) -> Vec<NodeId> {
        let xs = [0, self.cols() - 1];
        let ys = [0, self.rows() - 1];
        let mut out = Vec::with_capacity(4);
        for &y in &ys {
            for &x in &xs {
                let n = self.node_at(x, y);
                if !out.contains(&n) {
                    out.push(n);
                }
            }
        }
        out
    }

    /// Builds the static ring route used for SnackNoC transient data tokens:
    /// a Hamiltonian cycle visiting every node exactly once, where each
    /// consecutive pair (including last → first) is mesh-adjacent.
    ///
    /// # Errors
    ///
    /// Returns [`RingError`] for meshes without a Hamiltonian cycle
    /// (both dimensions odd, or a 1-wide mesh longer than 2).
    pub fn ring(&self) -> Result<Vec<NodeId>, RingError> {
        let (c, r) = (self.cols(), self.rows());
        if c == 1 && r == 1 {
            return Ok(vec![self.node_at(0, 0)]);
        }
        if c == 1 || r == 1 {
            // A path graph only has a Hamiltonian cycle with exactly 2 nodes.
            if c * r == 2 {
                return Ok(self.nodes().collect());
            }
            return Err(RingError { cols: self.cols, rows: self.rows });
        }
        if r % 2 == 0 {
            Ok(self.ring_rows_even())
        } else if c % 2 == 0 {
            // Transpose the even-rows construction.
            let t = Mesh::new(self.rows, self.cols);
            Ok(t.ring_rows_even()
                .into_iter()
                .map(|n| {
                    let (tx, ty) = t.coords(n);
                    self.node_at(ty, tx)
                })
                .collect())
        } else {
            Err(RingError { cols: self.cols, rows: self.rows })
        }
    }

    /// Hamiltonian cycle construction for meshes with an even number of
    /// rows: traverse row 0 west→east, serpentine through columns `1..cols`
    /// of rows `1..rows`, then return north along column 0.
    fn ring_rows_even(&self) -> Vec<NodeId> {
        let (c, r) = (self.cols(), self.rows());
        debug_assert!(r % 2 == 0 && c >= 2);
        let mut path = Vec::with_capacity(c * r);
        for x in 0..c {
            path.push(self.node_at(x, 0));
        }
        for y in 1..r {
            if y % 2 == 1 {
                for x in (1..c).rev() {
                    path.push(self.node_at(x, y));
                }
            } else {
                for x in 1..c {
                    path.push(self.node_at(x, y));
                }
            }
        }
        for y in (1..r).rev() {
            path.push(self.node_at(0, y));
        }
        path
    }

    /// First hop of a shortest path from `from` to `to` that avoids links
    /// reported down by `is_down(node, dir)` — the detour primitive the
    /// SnackNoC ring uses to route tokens around faulted segments.
    ///
    /// Deterministic: breadth-first in [`Dir::ROUTER_DIRS`] order, so the
    /// same down-set always yields the same detour. Returns `Some(to)`
    /// when `from == to`, and `None` when every route is severed.
    pub fn detour_next_hop(
        &self,
        from: NodeId,
        to: NodeId,
        mut is_down: impl FnMut(NodeId, Dir) -> bool,
    ) -> Option<NodeId> {
        if from == to {
            return Some(to);
        }
        let n = self.node_count();
        // `first_hop[v]` = the neighbour of `from` that a shortest live
        // path to `v` leaves through; doubles as the visited set.
        let mut first_hop: Vec<Option<NodeId>> = vec![None; n];
        first_hop[from.index()] = Some(from); // sentinel: visited, no hop
        let mut queue = std::collections::VecDeque::with_capacity(n);
        queue.push_back(from);
        while let Some(cur) = queue.pop_front() {
            for d in Dir::ROUTER_DIRS {
                let Some(nb) = self.neighbor(cur, d) else { continue };
                if first_hop[nb.index()].is_some() || is_down(cur, d) {
                    continue;
                }
                let hop = if cur == from { nb } else { first_hop[cur.index()]? };
                first_hop[nb.index()] = Some(hop);
                if nb == to {
                    return Some(hop);
                }
                queue.push_back(nb);
            }
        }
        None
    }
}

/// Error returned by [`Mesh::ring`] when no Hamiltonian cycle exists.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RingError {
    cols: u16,
    rows: u16,
}

impl fmt::Display for RingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no hamiltonian ring exists for a {}x{} mesh (needs an even side)",
            self.cols, self.rows
        )
    }
}

impl std::error::Error for RingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_indexing_round_trips() {
        let m = Mesh::new(4, 4);
        for y in 0..4 {
            for x in 0..4 {
                let n = m.node_at(x, y);
                assert_eq!(m.coords(n), (x, y));
            }
        }
        assert_eq!(m.node_at(0, 0).index(), 0);
        assert_eq!(m.node_at(3, 3).index(), 15);
    }

    #[test]
    fn neighbors_respect_edges() {
        let m = Mesh::new(4, 4);
        let nw = m.node_at(0, 0);
        assert_eq!(m.neighbor(nw, Dir::North), None);
        assert_eq!(m.neighbor(nw, Dir::West), None);
        assert_eq!(m.neighbor(nw, Dir::East), Some(m.node_at(1, 0)));
        assert_eq!(m.neighbor(nw, Dir::South), Some(m.node_at(0, 1)));
        assert_eq!(m.neighbor(nw, Dir::Local), None);

        let mid = m.node_at(2, 2);
        assert_eq!(m.neighbor(mid, Dir::North), Some(m.node_at(2, 1)));
        assert_eq!(m.neighbor(mid, Dir::South), Some(m.node_at(2, 3)));
        assert_eq!(m.neighbor(mid, Dir::East), Some(m.node_at(3, 2)));
        assert_eq!(m.neighbor(mid, Dir::West), Some(m.node_at(1, 2)));
    }

    #[test]
    fn corners_of_4x4() {
        let m = Mesh::new(4, 4);
        let corners = m.corner_nodes();
        assert_eq!(
            corners,
            vec![m.node_at(0, 0), m.node_at(3, 0), m.node_at(0, 3), m.node_at(3, 3)]
        );
    }

    fn assert_hamiltonian_cycle(m: &Mesh) {
        let ring = m.ring().expect("ring should exist");
        assert_eq!(ring.len(), m.node_count(), "ring must visit every node");
        let mut seen = vec![false; m.node_count()];
        for n in &ring {
            assert!(!seen[n.index()], "node visited twice: {n}");
            seen[n.index()] = true;
        }
        for w in ring.windows(2) {
            let adjacent = Dir::ROUTER_DIRS
                .iter()
                .any(|&d| m.neighbor(w[0], d) == Some(w[1]));
            assert!(adjacent, "{} and {} not adjacent", w[0], w[1]);
        }
        let wraps = Dir::ROUTER_DIRS
            .iter()
            .any(|&d| m.neighbor(*ring.last().unwrap(), d) == Some(ring[0]));
        assert!(wraps, "ring does not close");
    }

    #[test]
    fn ring_is_hamiltonian_for_standard_meshes() {
        for (c, r) in [(4, 4), (8, 4), (4, 8), (8, 8), (16, 8), (2, 2), (3, 4), (4, 3), (2, 5)] {
            assert_hamiltonian_cycle(&Mesh::new(c, r));
        }
    }

    #[test]
    fn ring_fails_for_odd_by_odd() {
        assert!(Mesh::new(3, 3).ring().is_err());
        assert!(Mesh::new(5, 7).ring().is_err());
        assert!(Mesh::new(1, 4).ring().is_err());
    }

    #[test]
    fn detour_next_hop_matches_direct_route_when_healthy() {
        let m = Mesh::new(4, 4);
        for src in m.nodes() {
            for dst in m.nodes() {
                let hop = m.detour_next_hop(src, dst, |_, _| false);
                if src == dst {
                    assert_eq!(hop, Some(dst));
                } else {
                    let hop = hop.expect("healthy mesh always routes");
                    let adjacent =
                        Dir::ROUTER_DIRS.iter().any(|&d| m.neighbor(src, d) == Some(hop));
                    assert!(adjacent, "first hop is a neighbour");
                }
            }
        }
        // Healthy BFS is minimal: adjacent nodes route directly.
        assert_eq!(
            m.detour_next_hop(m.node_at(0, 0), m.node_at(1, 0), |_, _| false),
            Some(m.node_at(1, 0))
        );
    }

    #[test]
    fn detour_next_hop_steers_around_a_down_link() {
        let m = Mesh::new(4, 4);
        let a = m.node_at(0, 0);
        let b = m.node_at(1, 0);
        // The direct east link is dead; BFS must leave through south.
        let hop = m
            .detour_next_hop(a, b, |node, dir| node == a && dir == Dir::East)
            .expect("a detour exists");
        assert_eq!(hop, m.node_at(0, 1));
        // Walking the detour converges: every step gets a valid next hop.
        let mut cur = a;
        let mut steps = 0;
        while cur != b {
            cur = m
                .detour_next_hop(cur, b, |node, dir| node == a && dir == Dir::East)
                .expect("path stays connected");
            steps += 1;
            assert!(steps <= m.node_count(), "detour walk must terminate");
        }
        assert_eq!(steps, 3, "shortest detour is 3 hops");
    }

    #[test]
    fn detour_next_hop_reports_severed_nodes() {
        let m = Mesh::new(2, 2);
        let a = m.node_at(0, 0);
        // Both of a's outgoing links are down: nothing is reachable.
        assert_eq!(m.detour_next_hop(a, m.node_at(1, 1), |n, _| n == a), None);
    }

    #[test]
    fn ring_display_error_is_informative() {
        let err = Mesh::new(3, 3).ring().unwrap_err();
        assert!(err.to_string().contains("3x3"));
    }
}
