//! # smi-topology — FPGA interconnect topologies and deadlock-free routing
//!
//! The SMI transport layer routes packets over a *dedicated* FPGA-to-FPGA
//! interconnect "without using additional network equipment like routers or
//! switches" (§4.3). The interconnect is described as a list of point-to-point
//! connections between QSFP network ports ("The topology is provided as a
//! JSON file, which describes connections between FPGA network ports", §4.5),
//! and routes are computed offline by a *route generator* using "a
//! deadlock-free routing scheme" (Domke et al. \[8\]) — then uploaded to the
//! devices at runtime, so that changing the topology or the number of ranks
//! never requires rebuilding a bitstream.
//!
//! This crate provides:
//!
//! * [`Topology`] — the connection-list interconnect description, with
//!   validation, plus builders for the paper's configurations
//!   ([`Topology::bus`], [`Topology::torus2d`], …) and JSON / `A:0 - B:0`
//!   text formats.
//! * [`RoutingPlan`] — per-rank next-hop tables computed with **up\*/down\***
//!   routing over a BFS spanning tree (a classic deadlock-free oblivious
//!   scheme for arbitrary topologies), together with the hop count of every
//!   pair; full paths are rebuilt per source on demand, for analysis.
//! * [`hop_tree`] — the spanning tree a tree bcast/reduce streams along,
//!   grown over a plan's hop matrix; both planes derive it here.
//! * [`deadlock`] — a channel-dependency-graph acyclicity checker used to
//!   *prove* (per instance) that a routing plan cannot deadlock under
//!   wormhole/backpressure semantics.
//!
//! Both the functional runtime and the cycle-level fabric consume the same
//! [`RoutingPlan`], exactly as the paper's CKS/CKR kernels consume the same
//! generated routing tables.
//!
//! ```
//! use smi_topology::{deadlock, RoutingPlan, Topology};
//!
//! // The paper's evaluation cluster: 8 FPGAs in a 2x4 torus.
//! let topo = Topology::torus2d(2, 4);
//! let plan = RoutingPlan::compute(&topo).unwrap();
//! assert!(deadlock::is_deadlock_free(&topo, &plan));
//! // Every pair is reachable; the routed diameter is small.
//! assert!(plan.max_hops() <= 5);
//! // The description round-trips through the on-disk JSON format.
//! let again = Topology::from_json(&topo.to_json()).unwrap();
//! assert_eq!(topo, again);
//! ```

#![warn(missing_docs)]

pub mod builders;
pub mod deadlock;
pub mod error;
pub mod graph;
pub mod json;
pub mod paths;
pub mod routing;

pub use error::TopologyError;
pub use graph::{Connection, Endpoint, Topology};
pub use json::TopologySpec;
pub use paths::PathStats;
pub use routing::{hop_tree, NextHop, RankRoutes, RoutingPlan};

/// Number of QSFP network ports on the paper's experimental boards
/// (Nallatech 520N: 4 × 40 Gbit/s).
pub const DEFAULT_PORTS_PER_RANK: usize = 4;

/// Most QSFP ports a rank may have: one per wire-addressable rank, which a
/// clique or a star of `smi_wire::MAX_RANKS` ranks stays under. A
/// topology is built before anything else checks it, and its adjacency
/// table is sized by this count, so a bound is what keeps a description
/// from claiming gigabytes; it also keeps every port in the `u16` a socket
/// frame tags it with.
pub const MAX_PORTS_PER_RANK: usize = smi_wire::MAX_RANKS;
