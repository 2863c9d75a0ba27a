//! The interconnect description: devices, QSFP ports, and cables.

use serde::{Deserialize, Serialize};

use crate::TopologyError;

/// One end of a cable: a physical QSFP network port on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Endpoint {
    /// The device (SMI rank — one rank per FPGA, as in the paper).
    pub rank: usize,
    /// The QSFP port index on that device (0..ports_per_rank).
    pub qsfp: usize,
}

impl Endpoint {
    /// Convenience constructor.
    pub const fn new(rank: usize, qsfp: usize) -> Self {
        Endpoint { rank, qsfp }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.rank, self.qsfp)
    }
}

/// A bidirectional point-to-point cable between two QSFP ports.
///
/// Physically a QSFP cable carries independent lanes in both directions, so
/// one `Connection` provides a full-duplex link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Connection {
    /// One end.
    pub a: Endpoint,
    /// The other end.
    pub b: Endpoint,
}

impl Connection {
    /// Convenience constructor from `(rank, qsfp)` pairs.
    pub const fn new(a_rank: usize, a_qsfp: usize, b_rank: usize, b_qsfp: usize) -> Self {
        Connection {
            a: Endpoint::new(a_rank, a_qsfp),
            b: Endpoint::new(b_rank, b_qsfp),
        }
    }

    /// The far end as seen from `rank`, if this cable touches `rank`.
    pub fn peer_of(&self, rank: usize) -> Option<Endpoint> {
        if self.a.rank == rank {
            Some(self.b)
        } else if self.b.rank == rank {
            Some(self.a)
        } else {
            None
        }
    }
}

/// A validated multi-FPGA interconnect: `num_ranks` devices, each with
/// `ports_per_rank` QSFP ports, and a list of cables.
///
/// Invariants enforced at construction:
/// * every endpoint is in bounds,
/// * no physical port has two cables,
/// * no device is cabled to itself,
/// * the graph is connected (every rank reachable from rank 0),
/// * at most 256 ranks (the wire header's 8-bit rank field),
/// * at most [`crate::MAX_PORTS_PER_RANK`] ports per rank, checked before
///   the per-port table is allocated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    num_ranks: usize,
    ports_per_rank: usize,
    connections: Vec<Connection>,
    /// adj[rank][qsfp] = far end of the cable plugged into that port.
    adj: Vec<Vec<Option<Endpoint>>>,
}

impl Topology {
    /// Build and validate a topology from a connection list.
    pub fn new(
        num_ranks: usize,
        ports_per_rank: usize,
        connections: Vec<Connection>,
    ) -> Result<Self, TopologyError> {
        if num_ranks > smi_wire::MAX_RANKS {
            return Err(TopologyError::TooManyRanks(num_ranks));
        }
        if ports_per_rank > crate::MAX_PORTS_PER_RANK {
            return Err(TopologyError::TooManyPorts(ports_per_rank));
        }
        let mut adj = vec![vec![None; ports_per_rank]; num_ranks];
        for c in &connections {
            for ep in [c.a, c.b] {
                if ep.rank >= num_ranks {
                    return Err(TopologyError::RankOutOfBounds {
                        rank: ep.rank,
                        num_ranks,
                    });
                }
                if ep.qsfp >= ports_per_rank {
                    return Err(TopologyError::PortOutOfBounds {
                        port: ep.qsfp,
                        ports_per_rank,
                    });
                }
            }
            if c.a.rank == c.b.rank {
                return Err(TopologyError::SelfLoop { rank: c.a.rank });
            }
            for (ep, far) in [(c.a, c.b), (c.b, c.a)] {
                let slot = &mut adj[ep.rank][ep.qsfp];
                if slot.is_some() {
                    return Err(TopologyError::PortInUse {
                        rank: ep.rank,
                        port: ep.qsfp,
                    });
                }
                *slot = Some(far);
            }
        }
        let topo = Topology {
            num_ranks,
            ports_per_rank,
            connections,
            adj,
        };
        if num_ranks > 1 {
            if let Some(unreachable) = topo.first_unreachable() {
                return Err(TopologyError::Disconnected {
                    unreachable_rank: unreachable,
                });
            }
        }
        Ok(topo)
    }

    fn first_unreachable(&self) -> Option<usize> {
        let mut seen = vec![false; self.num_ranks];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(r) = stack.pop() {
            for peer in self.adj[r].iter().flatten() {
                if !seen[peer.rank] {
                    seen[peer.rank] = true;
                    stack.push(peer.rank);
                }
            }
        }
        seen.iter().position(|&s| !s)
    }

    /// Number of devices (ranks).
    #[inline]
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    /// QSFP ports per device.
    #[inline]
    pub fn ports_per_rank(&self) -> usize {
        self.ports_per_rank
    }

    /// The cable list this topology was built from.
    #[inline]
    pub fn connections(&self) -> &[Connection] {
        &self.connections
    }

    /// The far end of the cable plugged into `rank`:`qsfp`, if any (`None`
    /// also for a port the device does not have).
    #[inline]
    pub fn peer(&self, rank: usize, qsfp: usize) -> Option<Endpoint> {
        *self.adj[rank].get(qsfp)?
    }

    /// Iterate over the connected ports of `rank` as `(qsfp, far_end)`.
    pub fn neighbors(&self, rank: usize) -> impl Iterator<Item = (usize, Endpoint)> + '_ {
        self.adj[rank]
            .iter()
            .enumerate()
            .filter_map(|(q, ep)| ep.map(|e| (q, e)))
    }

    /// Neighbour ranks of `rank` (deduplicated, in qsfp order).
    pub fn neighbor_ranks(&self, rank: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for (_, ep) in self.neighbors(rank) {
            if !out.contains(&ep.rank) {
                out.push(ep.rank);
            }
        }
        out
    }

    /// Degree (number of cabled ports) of `rank`.
    pub fn degree(&self, rank: usize) -> usize {
        self.adj[rank].iter().flatten().count()
    }

    /// A copy of this topology with connection `idx` removed — used for
    /// failure-injection tests ("if the interconnection topology changes …
    /// the routing scheme merely needs to be recomputed", §4.3).
    ///
    /// Fails if removing the cable disconnects the graph.
    pub fn without_connection(&self, idx: usize) -> Result<Topology, TopologyError> {
        let mut conns = self.connections.clone();
        assert!(idx < conns.len(), "connection index out of range");
        conns.remove(idx);
        Topology::new(self.num_ranks, self.ports_per_rank, conns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_two_rank_topology() {
        let t = Topology::new(2, 4, vec![Connection::new(0, 0, 1, 0)]).unwrap();
        assert_eq!(t.num_ranks(), 2);
        assert_eq!(t.peer(0, 0), Some(Endpoint::new(1, 0)));
        assert_eq!(t.peer(0, 1), None);
        assert_eq!(t.degree(0), 1);
        assert_eq!(t.neighbor_ranks(0), vec![1]);
    }

    #[test]
    fn port_reuse_rejected() {
        let err = Topology::new(
            3,
            4,
            vec![Connection::new(0, 0, 1, 0), Connection::new(0, 0, 2, 0)],
        )
        .unwrap_err();
        assert_eq!(err, TopologyError::PortInUse { rank: 0, port: 0 });
    }

    #[test]
    fn self_loop_rejected() {
        let err = Topology::new(2, 4, vec![Connection::new(0, 0, 0, 1)]).unwrap_err();
        assert_eq!(err, TopologyError::SelfLoop { rank: 0 });
    }

    #[test]
    fn out_of_bounds_rejected() {
        let err = Topology::new(2, 4, vec![Connection::new(0, 0, 2, 0)]).unwrap_err();
        assert!(matches!(
            err,
            TopologyError::RankOutOfBounds { rank: 2, .. }
        ));
        let err = Topology::new(2, 4, vec![Connection::new(0, 5, 1, 0)]).unwrap_err();
        assert!(matches!(
            err,
            TopologyError::PortOutOfBounds { port: 5, .. }
        ));
    }

    #[test]
    fn disconnected_rejected() {
        let err = Topology::new(4, 4, vec![Connection::new(0, 0, 1, 0)]).unwrap_err();
        assert!(matches!(err, TopologyError::Disconnected { .. }));
    }

    #[test]
    fn too_many_ranks_rejected() {
        let err = Topology::new(300, 4, vec![]).unwrap_err();
        assert_eq!(err, TopologyError::TooManyRanks(300));
    }

    /// A port count past the bound is refused before the per-port table is
    /// sized by it; the largest in-tree port counts (a 256-rank star and
    /// clique) stay within it.
    #[test]
    fn too_many_ports_rejected() {
        let over = crate::MAX_PORTS_PER_RANK + 1;
        let err = Topology::new(2, over, vec![Connection::new(0, 0, 1, 0)]).unwrap_err();
        assert_eq!(err, TopologyError::TooManyPorts(over));
        assert!(crate::MAX_PORTS_PER_RANK <= usize::from(u16::MAX));
        let star = Topology::star(smi_wire::MAX_RANKS);
        let clique = Topology::fully_connected(smi_wire::MAX_RANKS);
        for t in [star, clique] {
            assert!(t.ports_per_rank() <= crate::MAX_PORTS_PER_RANK);
        }
    }

    #[test]
    fn without_connection_failure_injection() {
        // Triangle: removing one edge keeps it connected.
        let t = Topology::new(
            3,
            4,
            vec![
                Connection::new(0, 0, 1, 0),
                Connection::new(1, 1, 2, 0),
                Connection::new(2, 1, 0, 1),
            ],
        )
        .unwrap();
        let t2 = t.without_connection(2).unwrap();
        assert_eq!(t2.connections().len(), 2);
        // Removing a bridge of the remaining line disconnects.
        assert!(t2.without_connection(0).is_err());
    }

    #[test]
    fn peer_of_connection() {
        let c = Connection::new(3, 1, 5, 2);
        assert_eq!(c.peer_of(3), Some(Endpoint::new(5, 2)));
        assert_eq!(c.peer_of(5), Some(Endpoint::new(3, 1)));
        assert_eq!(c.peer_of(4), None);
    }
}
