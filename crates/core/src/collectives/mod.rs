//! Collective channels (§3.2): `SMI_Open_bcast_channel` & friends.
//!
//! Each collective owns a dedicated port and implements the §4.4
//! synchronization protocol of the reference implementation: ready-`Sync`s
//! for the one-to-all collectives (Bcast, Scatter), serialized `Sync` grants
//! for Gather, and credit-based flow control for Reduce — exchanging exactly
//! the packets the fabric's support kernels exchange.
//!
//! ## Poll-mode cores
//!
//! Every channel is a **non-blocking state machine** with an explicit
//! handshake state ([`CollectiveState`]: `Opening → Streaming → Done`),
//! driven by the shared [`CollectivePoll`] interface plus per-channel
//! `try_*` operations. Nothing in the core ever parks the calling thread:
//! every channel does its I/O through the port's `PortIo` handle
//! ([`crate::endpoint`]), the same handle point-to-point channels run on —
//! outgoing packets (data, syncs, grants, credits) are staged there and
//! re-offered to the transport on every poll, and incoming packets are
//! drained with its non-blocking receives. That is what lets
//! [`crate::RankTask`] programs on [`crate::env::run_mpmd_tasks`] open and
//! drive collectives cooperatively — an in-progress open never occupies an
//! executor worker.
//!
//! The paper-shaped blocking methods (`bcast`, `reduce`, `push`, `pop` and
//! the `*_slice` bulk forms) are thin wrappers that spin the core in the
//! one wait loop every blocking call of the runtime uses, point-to-point
//! included: `PortIo::wait().on(..)`, the port's `endpoint::Stall` (the
//! runtime's `blocking_timeout` stall bound, its `blocking_deadline` and the
//! fabric-health board); the blocking `open_*` context methods spin the
//! open handshake the same way, preserving the §3.3 rendezvous semantics on
//! the thread plane.
//!
//! A port hosts one channel at a time, but a member that finished a
//! message may open the port's next one while others are still in the
//! last: whatever an open channel reads for a later message (a reduce
//! contribution past its count, a second ready-`Sync` from one scatter
//! child) waits in the port's endpoint for the next open, which reads it
//! first (`PortIo::carry`).
//!
//! ## Bulk element APIs
//!
//! Mirroring the point-to-point bulk path, every collective moves whole
//! slices per call (`bcast_slice`, `reduce_slice`, scatter/gather
//! `push_slice`/`pop_slice`), framing directly into packet bursts via
//! `Framer::frame_slice`/`Deframer::pop_slice`. The broadcast root fans a
//! window of packets out grouped per destination (long same-route runs for
//! the CKS), and reduce combiners coalesce credit grants per completed
//! window into one `Credit` packet per contributor, clamped to the message
//! tail.
//!
//! ## Routing schemes: linear vs. tree
//!
//! Every collective supports two [`CollectiveScheme`]s, selected for the
//! whole run through [`crate::RuntimeParams::collective_scheme`]. The
//! scheme decides the data path of bcast and reduce, whose every tree edge
//! carries the whole stream, and only the control plane of scatter and
//! gather, whose blocks are personalised:
//!
//! * **Linear** (default) — the paper's root-centric shape: every element
//!   moves directly between the root and each member. Internally this is
//!   the *star tree* (the root parents everyone); it remains the
//!   regression baseline and wins on latency at small rank counts, where
//!   an extra store-and-forward hop costs more than root serialization.
//! * **Tree** — bcast and reduce run the same `Opening → Streaming → Done`
//!   protocol along the hop tree ([`topology`]) instead of root spokes,
//!   with **no extra handshake rounds**: every member derives the
//!   identical tree locally. A bcast interior names its children in its
//!   port's fan-out and its CKR copies every frame to them before
//!   delivering it; a reduce interior folds its children's contributions
//!   into the credit-window ring before forwarding partial aggregates
//!   upward. On a full communicator over `bus`/`ring`/`torus2d`/`star`
//!   every edge is one physical link, so a packet crosses each link once.
//!   The tree is as deep as the topology is wide, which the per-message
//!   subtree-ready handshake pays for (serial over depth).
//!
//! Scatter and gather route under both schemes: each block travels root ↔
//! owner as its own `(src, dst)` stream on the point-to-point data path,
//! framed as one run, and no other member touches it. Scatter's readiness
//! takes the star under both schemes. A gather root grants members in
//! communicator order: one at a time under `Linear`, under `Tree` as many
//! ahead of the member it pops as fit `max(count, burst_packets ×
//! elems_per_packet)` elements.

mod bcast;
mod gather;
mod reduce;
mod scatter;
pub mod topology;

pub use bcast::BcastChannel;
pub use gather::GatherChannel;
pub use reduce::ReduceChannel;
pub use scatter::ScatterChannel;
pub use topology::CollectiveScheme;

use crate::SmiError;

/// Handshake state of a collective channel's poll-mode core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveState {
    /// The open handshake has not completed (ready-`Sync`s outstanding).
    Opening,
    /// Handshake complete (or not required); elements are moving.
    Streaming,
    /// All `count` elements moved and every staged packet handed over.
    Done,
}

/// The shared poll interface of the collective cores: advance the open
/// handshake and any staged traffic as far as currently possible, without
/// blocking. Cooperative rank tasks call this (directly or via the `try_*`
/// operations, which poll implicitly) instead of the blocking API.
pub trait CollectivePoll {
    /// Advance without blocking and report the resulting state.
    fn poll(&mut self) -> Result<CollectiveState, SmiError>;

    /// The current handshake state (no progress attempted).
    fn state(&self) -> CollectiveState;
}

/// A zero-initialized element (placeholder for out-parameters; `SmiType`
/// requires a defined value for every bit pattern, so all-zeroes is valid).
pub(crate) fn zero_elem<T: smi_wire::SmiType>() -> T {
    let buf = [0u8; 16];
    T::read_le(&buf[..T::DATATYPE.size_bytes()])
}
