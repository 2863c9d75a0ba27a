//! Error type for topology construction and route generation.

use std::fmt;

/// Errors from building topologies or generating routes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A rank index referenced by a connection is `>= num_ranks`.
    RankOutOfBounds {
        /// Offending rank.
        rank: usize,
        /// Number of ranks in the topology.
        num_ranks: usize,
    },
    /// A QSFP port index is `>= ports_per_rank`.
    PortOutOfBounds {
        /// Offending port.
        port: usize,
        /// Ports available per rank.
        ports_per_rank: usize,
    },
    /// Two cables plugged into the same physical port.
    PortInUse {
        /// Rank owning the port.
        rank: usize,
        /// The port plugged twice.
        port: usize,
    },
    /// A cable connecting a device to itself.
    SelfLoop {
        /// The rank connected to itself.
        rank: usize,
    },
    /// The interconnect graph is not connected; some rank pairs would be
    /// unreachable.
    Disconnected {
        /// A rank not reachable from rank 0.
        unreachable_rank: usize,
    },
    /// No legal (up*/down*) route exists between a pair of ranks.
    NoRoute {
        /// Source rank.
        src: usize,
        /// Destination rank.
        dst: usize,
    },
    /// More ranks than the 8-bit wire rank field can address.
    TooManyRanks(usize),
    /// More QSFP ports per rank than [`crate::MAX_PORTS_PER_RANK`].
    TooManyPorts(usize),
    /// A malformed topology description (JSON or text) or routing plan.
    BadSpec(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::RankOutOfBounds { rank, num_ranks } => {
                write!(f, "rank {rank} out of bounds (num_ranks = {num_ranks})")
            }
            TopologyError::PortOutOfBounds {
                port,
                ports_per_rank,
            } => {
                write!(
                    f,
                    "QSFP port {port} out of bounds (ports_per_rank = {ports_per_rank})"
                )
            }
            TopologyError::PortInUse { rank, port } => {
                write!(f, "QSFP port {rank}:{port} has two cables plugged in")
            }
            TopologyError::SelfLoop { rank } => {
                write!(f, "rank {rank} is cabled to itself")
            }
            TopologyError::Disconnected { unreachable_rank } => {
                write!(
                    f,
                    "topology is disconnected: rank {unreachable_rank} unreachable from rank 0"
                )
            }
            TopologyError::NoRoute { src, dst } => {
                write!(f, "no deadlock-free route from rank {src} to rank {dst}")
            }
            TopologyError::TooManyRanks(n) => {
                write!(f, "{n} ranks exceed the 8-bit wire rank field (max 256)")
            }
            TopologyError::TooManyPorts(n) => write!(
                f,
                "{n} QSFP ports per rank exceed the maximum of {}",
                crate::MAX_PORTS_PER_RANK
            ),
            TopologyError::BadSpec(msg) => write!(f, "bad topology or routing description: {msg}"),
        }
    }
}

impl std::error::Error for TopologyError {}
