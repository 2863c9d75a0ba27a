//! Channel-dependency-graph acyclicity checking.
//!
//! Under backpressured (credit/wormhole-style) forwarding, a routing function
//! is deadlock-free iff its *channel dependency graph* (CDG) is acyclic
//! (Dally & Seitz). Nodes of the CDG are directed channels — each cable used
//! in one direction — and there is an edge c1 → c2 whenever some routed path
//! uses c2 immediately after c1, i.e. a packet may hold c1 while waiting
//! for c2.
//!
//! The up*/down* scheme in [`crate::routing`] guarantees acyclicity by
//! construction; this module proves it per instance, and demonstrates that
//! plain shortest-path routing is *not* safe (e.g. on rings).
//!
//! # Known gap: checked paths vs. walked tables
//!
//! [`find_cycle`] checks the paths each *source* computes
//! ([`RoutingPlan::paths`]), but packets are not source-routed: every
//! rank on the way consults its own table, whose route was searched from
//! that rank in the up phase. On the paper's builders (`bus`, `ring`,
//! `torus2d`, `star`) both agree (`tests/table_walk.rs`). On irregular graphs
//! the walk can leave the checked path and turn down→up — with
//! `random_connected(10, 4, 6, seed 86)`, 3→8 is checked as `[3, 7, 1, 8]`
//! and walks `[3, 7, 2, 8]` — so the *walked* CDG is cyclic on about 2 % of
//! such graphs while `find_cycle` reports acyclic. The walk still arrives
//! (each hop shortens the remaining legal route). See ROADMAP "Open items".

use crate::routing::Hop;
use crate::{RoutingPlan, Topology};

/// A directed channel is identified by its outgoing endpoint: `(rank, qsfp)`
/// names the transmit side of a cable, which determines the direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Channel {
    /// Sender rank.
    pub rank: usize,
    /// Sender QSFP port.
    pub qsfp: usize,
}

impl From<Hop> for Channel {
    fn from(h: Hop) -> Channel {
        Channel {
            rank: h.from.rank,
            qsfp: h.from.qsfp,
        }
    }
}

/// Build the CDG of a routing plan and search for a cycle.
///
/// Returns `None` if the plan is deadlock-free (acyclic CDG), or
/// `Some(cycle)` with a witness sequence of channels `c0 → c1 → … → c0`.
pub fn find_cycle(topo: &Topology, plan: &RoutingPlan) -> Option<Vec<Channel>> {
    let ports = topo.ports_per_rank();
    let n_channels = topo.num_ranks() * ports;
    let chan_id = |c: Channel| c.rank * ports + c.qsfp;

    // Adjacency of the CDG, deduplicated.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n_channels];
    for path in plan.paths(topo).flatten() {
        for w in path.windows(2) {
            let a = chan_id(Channel::from(w[0]));
            let b = chan_id(Channel::from(w[1]));
            if !edges[a].contains(&b) {
                edges[a].push(b);
            }
        }
    }

    // Iterative DFS with colouring; on finding a back edge, reconstruct the
    // cycle from the stack.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color = vec![Color::White; n_channels];
    // The DFS path, root first: (node, next edge index).
    let mut stack: Vec<(usize, usize)> = Vec::new();

    for start in 0..n_channels {
        if color[start] != Color::White {
            continue;
        }
        color[start] = Color::Grey;
        stack.push((start, 0));
        while let Some(&mut (node, ref mut ei)) = stack.last_mut() {
            if *ei < edges[node].len() {
                let next = edges[node][*ei];
                *ei += 1;
                match color[next] {
                    Color::White => {
                        color[next] = Color::Grey;
                        stack.push((next, 0));
                    }
                    Color::Grey => {
                        // Found a cycle: slice the current path from `next`.
                        let pos = stack
                            .iter()
                            .position(|&(n, _)| n == next)
                            .expect("grey node is on the path");
                        let cycle = stack[pos..]
                            .iter()
                            .map(|&(id, _)| Channel {
                                rank: id / ports,
                                qsfp: id % ports,
                            })
                            .collect();
                        return Some(cycle);
                    }
                    Color::Black => {}
                }
            } else {
                color[node] = Color::Black;
                stack.pop();
            }
        }
    }
    None
}

/// Convenience: `true` when the plan's CDG is acyclic.
pub fn is_deadlock_free(topo: &Topology, plan: &RoutingPlan) -> bool {
    find_cycle(topo, plan).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::Scheme;

    #[test]
    fn updown_bus_is_deadlock_free() {
        let topo = Topology::bus(8);
        let plan = RoutingPlan::compute(&topo).unwrap();
        assert!(is_deadlock_free(&topo, &plan));
    }

    #[test]
    fn updown_torus_is_deadlock_free() {
        for (rx, ry) in [(2, 4), (4, 4), (3, 3)] {
            let topo = Topology::torus2d(rx, ry);
            let plan = RoutingPlan::compute(&topo).unwrap();
            assert!(is_deadlock_free(&topo, &plan), "torus {rx}x{ry}");
        }
    }

    #[test]
    fn updown_ring_is_deadlock_free() {
        for n in [3usize, 4, 5, 8, 12] {
            let topo = Topology::ring(n);
            let plan = RoutingPlan::compute(&topo).unwrap();
            assert!(is_deadlock_free(&topo, &plan), "ring {n}");
        }
    }

    #[test]
    fn shortest_path_on_ring_has_cycle() {
        // The canonical counter-example: shortest-path routing on a ring of
        // >= 5 nodes sends traffic around in both directions, producing a
        // cyclic channel dependency in each direction of the ring.
        let topo = Topology::ring(6);
        let plan = RoutingPlan::compute_with(&topo, Scheme::ShortestPath).unwrap();
        let cycle = find_cycle(&topo, &plan).expect("a CDG cycle on the ring");
        assert!(cycle.len() >= 3);
    }

    #[test]
    fn cycle_witness_is_a_real_cycle() {
        let topo = Topology::ring(8);
        let plan = RoutingPlan::compute_with(&topo, Scheme::ShortestPath).unwrap();
        let cycle = find_cycle(&topo, &plan).expect("a cycle on shortest-path ring routing");
        // Every consecutive pair in the witness must be a CDG edge, i.e.
        // appear consecutively in some routed path.
        let consecutive_in_some_path = |a: Channel, b: Channel| {
            plan.paths(&topo).flatten().any(|path| {
                path.windows(2)
                    .any(|w| Channel::from(w[0]) == a && Channel::from(w[1]) == b)
            })
        };
        for i in 0..cycle.len() {
            let (a, b) = (cycle[i], cycle[(i + 1) % cycle.len()]);
            assert!(
                consecutive_in_some_path(a, b),
                "witness edge {a:?}->{b:?} not in CDG"
            );
        }
    }

    #[test]
    fn star_trivially_deadlock_free() {
        let topo = Topology::star(6);
        for scheme in [Scheme::UpDown, Scheme::ShortestPath] {
            let plan = RoutingPlan::compute_with(&topo, scheme).unwrap();
            assert!(is_deadlock_free(&topo, &plan));
        }
    }
}
