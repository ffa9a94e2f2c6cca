//! Router port directions and dimension-order (XY) route computation.

use crate::topology::{Mesh, NodeId};
use std::fmt;

/// A router port direction.
///
/// The four cardinal directions connect to neighbouring routers; `Local`
/// connects to the node's network interface (and, in SnackNoC, its Router
/// Compute Unit).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum Dir {
    /// Towards increasing `x` (column).
    East = 0,
    /// Towards decreasing `x`.
    West = 1,
    /// Towards decreasing `y` (row 0 is the north edge).
    North = 2,
    /// Towards increasing `y`.
    South = 3,
    /// The node's own network interface.
    Local = 4,
}

impl Dir {
    /// All five port directions, in port-index order.
    pub const ALL: [Dir; 5] = [Dir::East, Dir::West, Dir::North, Dir::South, Dir::Local];

    /// The four router-to-router directions (everything but `Local`).
    pub const ROUTER_DIRS: [Dir; 4] = [Dir::East, Dir::West, Dir::North, Dir::South];

    /// Number of ports on a mesh router.
    pub const COUNT: usize = 5;

    /// The port index of this direction (stable, `0..Dir::COUNT`).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The direction from the other end of a link: `East.opposite() == West`.
    ///
    /// # Panics
    ///
    /// Panics for `Dir::Local`, which has no opposite.
    pub fn opposite(self) -> Dir {
        match self {
            Dir::East => Dir::West,
            Dir::West => Dir::East,
            Dir::North => Dir::South,
            Dir::South => Dir::North,
            Dir::Local => panic!("Local port has no opposite direction"),
        }
    }

    /// Builds a direction from a port index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= Dir::COUNT`.
    pub fn from_index(index: usize) -> Dir {
        Dir::ALL[index]
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Dir::East => "E",
            Dir::West => "W",
            Dir::North => "N",
            Dir::South => "S",
            Dir::Local => "L",
        };
        f.write_str(s)
    }
}

/// Computes the dimension-order (XY) output port for a flit currently at
/// `cur` and destined for `dst`: travel east/west until the column matches,
/// then north/south, then eject at `Local`.
///
/// XY routing is deterministic and deadlock-free on a mesh, which is why the
/// paper reuses the baseline algorithm for SnackNoC instruction flits "as to
/// not increase route computation overhead" (§III-B).
pub fn xy_route(mesh: &Mesh, cur: NodeId, dst: NodeId) -> Dir {
    xy_dir(mesh.coords(cur), mesh.coords(dst))
}

/// [`xy_route`] from `(x, y)` coordinates, for a router that looks them
/// up instead of dividing.
pub(crate) fn xy_dir<T: Ord>((cx, cy): (T, T), (dx, dy): (T, T)) -> Dir {
    if dx > cx {
        Dir::East
    } else if dx < cx {
        Dir::West
    } else if dy > cy {
        Dir::South
    } else if dy < cy {
        Dir::North
    } else {
        Dir::Local
    }
}

/// The number of mesh hops an XY-routed packet takes from `src` to `dst`
/// (Manhattan distance).
pub fn hop_count(mesh: &Mesh, src: NodeId, dst: NodeId) -> usize {
    let (sx, sy) = mesh.coords(src);
    let (dx, dy) = mesh.coords(dst);
    sx.abs_diff(dx) + sy.abs_diff(dy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_index_round_trips() {
        for d in Dir::ALL {
            assert_eq!(Dir::from_index(d.index()), d);
        }
    }

    #[test]
    fn opposites_pair_up() {
        assert_eq!(Dir::East.opposite(), Dir::West);
        assert_eq!(Dir::West.opposite(), Dir::East);
        assert_eq!(Dir::North.opposite(), Dir::South);
        assert_eq!(Dir::South.opposite(), Dir::North);
    }

    #[test]
    #[should_panic(expected = "no opposite")]
    fn local_has_no_opposite() {
        let _ = Dir::Local.opposite();
    }

    #[test]
    fn xy_goes_x_first() {
        let m = Mesh::new(4, 4);
        let src = m.node_at(0, 0);
        let dst = m.node_at(3, 2);
        assert_eq!(xy_route(&m, src, dst), Dir::East);
        assert_eq!(xy_route(&m, m.node_at(3, 0), dst), Dir::South);
        assert_eq!(xy_route(&m, dst, dst), Dir::Local);
        assert_eq!(xy_route(&m, m.node_at(3, 3), dst), Dir::North);
        assert_eq!(xy_route(&m, m.node_at(3, 2), m.node_at(0, 2)), Dir::West);
    }

    #[test]
    fn xy_walks_terminate_at_destination_in_minimal_hops() {
        let m = Mesh::new(8, 4);
        for src in m.nodes() {
            for dst in m.nodes() {
                let mut cur = src;
                let mut hops = 0;
                loop {
                    let dir = xy_route(&m, cur, dst);
                    if dir == Dir::Local {
                        break;
                    }
                    cur = m.neighbor(cur, dir).expect("route must follow links");
                    hops += 1;
                    assert!(hops <= m.node_count(), "routing loop");
                }
                assert_eq!(cur, dst);
                assert_eq!(hops, hop_count(&m, src, dst), "XY is minimal");
            }
        }
    }
}
