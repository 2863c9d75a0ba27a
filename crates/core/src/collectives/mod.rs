//! Collective channels (§3.2): `SMI_Open_bcast_channel` & friends.
//!
//! Each collective owns a dedicated port and implements the §4.4
//! synchronization protocol of the reference implementation: ready-`Sync`s
//! for Bcast, one `Sync` grant per block for Scatter and Gather (a scatter
//! member's is its ready-`Sync`, a gather root's are serialized), and
//! credit-based flow control for Reduce — exchanging exactly the packets
//! the fabric's support kernels exchange.
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
//! last, so packets for a later message can reach a port early. No channel
//! reads a control packet: a CKR of the rank counts each `Sync` per sender
//! and each credit into the port's `transport::ck::PortCtl`, and the open
//! it belongs to claims it there — a second ready-`Sync` from one scatter
//! member, or a grant from the root of the next gather, simply stays
//! tallied until then. Collective deliveries carry data only. The one
//! frame a channel reads for a later message is a reduce contribution past
//! its sender's count: the channel holds it (`PortIo::hold`), and when the
//! channel drops it goes back to the front of the port's delivery, where
//! the next open reads it first.
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
//!   The tree is as deep as the topology is wide, and the per-message
//!   subtree-ready handshake climbs it serially; but an interior's CKRs
//!   count its children's ready-`Sync`s and send its own on, so the climb
//!   costs one kernel crossing per level, not a rank task's poll.
//!
//! Scatter and gather take no tree under either scheme. They are one block
//! protocol run in opposite directions (`blocks.rs`): the rank that
//! receives a block grants it with one `Sync`, and the sender then streams
//! it root ↔ owner as its own `(src, dst)` stream on the point-to-point
//! data path, framed as one run; no other member touches it. A scatter
//! member grants its block at open (the paper's ready-`Sync`). A gather
//! root grants members in communicator order: one at a time under
//! `Linear`, under `Tree` as many ahead of the member it pops as fit
//! `max(count, burst_packets × elems_per_packet)` elements.

mod bcast;
mod blocks;
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
    /// The open handshake has not completed: a bcast member's subtree is
    /// not ready, a scatter member's ready-`Sync` has not left, or a gather
    /// member's grant has not arrived (scatter and gather roots never wait).
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

#[cfg(test)]
mod tests {
    use crossbeam::channel::{bounded, Receiver, Sender};
    use smi_codegen::OpSpec;
    use smi_wire::{Datatype, Frame, Framer, NetworkPacket, PacketOp};

    use super::*;
    use crate::comm::Communicator;
    use crate::endpoint::{new_table, CksLanes, PacketRx, PortRes};
    use crate::transport::ck::PortCtl;
    use crate::transport::link::{burst_queue, LinkSend, QueueTx};
    use crate::transport::{Burst, CopyMeter};
    use crate::RuntimeParams;

    use CollectiveState::{Done, Opening, Streaming};

    /// Communicator (and wire) rank of the root, of three members.
    const ROOT: usize = 1;

    const SCHEMES: [CollectiveScheme; 2] = [CollectiveScheme::Linear, CollectiveScheme::Tree];

    /// Member `me` of three holding a scatter or gather port 0: what it
    /// sends waits in a one-burst lane the test reads (a burst left there
    /// makes the next flush fail), and the test writes its delivery and
    /// counts its `Sync`s, as the rank's CKRs would.
    struct Rank {
        lane: (Sender<Burst>, Receiver<Burst>),
        deliver: QueueTx,
        sync: PortCtl,
        me: u8,
    }

    /// Open `open` as member `me` of three under `scheme`, blocking the
    /// lane first if `blocked`.
    fn rank<C>(
        op: OpSpec,
        me: usize,
        scheme: CollectiveScheme,
        blocked: bool,
        open: impl FnOnce(crate::endpoint::EndpointTableHandle, &Communicator, &RuntimeParams) -> C,
    ) -> (Rank, C) {
        let lane = bounded(1);
        let (deliver, data_rx) = burst_queue(64);
        let rx = PacketRx::new(data_rx, CopyMeter::default());
        let res = PortRes::new(&op, CksLanes::loopback(Box::new(lane.0.clone())), Some(rx));
        let sync = res.ctl.clone().expect("a scatter or gather port");
        let table = new_table();
        table.lock().put(0, op.kind, res);
        let rank = Rank {
            lane,
            deliver,
            sync,
            me: me as u8,
        };
        if blocked {
            rank.block_lane();
        }
        let params = RuntimeParams {
            collective_scheme: scheme,
            ..RuntimeParams::default()
        };
        let ch = open(table, &Communicator::of_members(vec![0, 1, 2], me), &params);
        (rank, ch)
    }

    fn scatter(
        me: usize,
        count: u64,
        scheme: CollectiveScheme,
        blocked: bool,
    ) -> (Rank, ScatterChannel<i32>) {
        let op = OpSpec::scatter(0, Datatype::Int);
        rank(op, me, scheme, blocked, |table, comm, params| {
            ScatterChannel::open(table, comm, count, 0, ROOT, params).unwrap()
        })
    }

    fn gather(me: usize, count: u64, scheme: CollectiveScheme) -> (Rank, GatherChannel<i32>) {
        let op = OpSpec::gather(0, Datatype::Int);
        rank(op, me, scheme, false, |table, comm, params| {
            GatherChannel::open(table, comm, count, 0, ROOT, params).unwrap()
        })
    }

    impl Rank {
        /// Fill the lane with a stray burst: flushes fail until [`Rank::sent`].
        fn block_lane(&self) {
            let stray = NetworkPacket::control(9, 9, 0, PacketOp::Sync, 0);
            self.lane.0.try_send(vec![stray.into()]).unwrap();
        }

        /// `(op, src, dst)` of every frame in the lane, strays left out.
        fn sent(&self) -> Vec<(PacketOp, u8, u8)> {
            let tag = |f: Frame| (f.header().op, f.header().src, f.header().dst);
            let frames = self.lane.1.try_iter().flatten().map(tag);
            frames.filter(|&(_, src, _)| src != 9).collect()
        }

        /// Count a `Sync` from `src` into the port's tally.
        fn sync_from(&self, src: u8) {
            let sync = NetworkPacket::control(src, self.me, 0, PacketOp::Sync, 0);
            assert!(self.sync.count(&[sync.into()]).is_none());
        }

        /// Deliver `values` as one frame of `op` data from `src`.
        fn data_from(&self, src: u8, op: PacketOp, values: &[i32]) {
            let mut framer = Framer::new(Datatype::Int, src, self.me, 0, op);
            let (_, frame) = framer.frame_slice(values, values.len(), usize::MAX);
            self.deliver(vec![frame.unwrap()]);
        }

        fn deliver(&self, burst: Burst) {
            assert!(matches!(self.deliver.push(burst), LinkSend::Accepted));
        }
    }

    /// A scatter member is `Opening` until its ready-`Sync` left, and `Done`
    /// once its block was popped.
    #[test]
    fn scatter_member_opens_once_its_ready_sync_left() {
        for scheme in SCHEMES {
            let (rank, mut ch) = scatter(0, 3, scheme, true);
            assert_eq!(ch.state(), Opening);
            assert_eq!(ch.poll().unwrap(), Opening);
            assert_eq!(rank.sent(), []);
            assert_eq!(ch.poll().unwrap(), Streaming);
            assert_eq!(rank.sent(), [(PacketOp::Sync, 0, 1)]);
            rank.data_from(1, PacketOp::Scatter, &[4, 5, 6]);
            let mut out = [0; 3];
            assert_eq!(ch.try_pop_slice(&mut out).unwrap(), 3);
            assert_eq!(out, [4, 5, 6]);
            assert_eq!(ch.poll().unwrap(), Done);
        }
    }

    /// A scatter root streams from open, sends each block once its owner's
    /// ready-`Sync` arrived, and is not `Done` while a block is staged.
    #[test]
    fn scatter_root_is_done_once_its_blocks_left() {
        for scheme in SCHEMES {
            let (rank, mut ch) = scatter(ROOT, 3, scheme, false);
            assert_eq!(ch.state(), Streaming);
            let values: Vec<i32> = (0..9).collect();
            // Block 0 waits for member 0's ready-`Sync`.
            assert_eq!(ch.try_push_slice(&values).unwrap(), 0);
            rank.sync_from(0);
            rank.sync_from(2);
            rank.block_lane();
            assert_eq!(ch.try_push_slice(&values).unwrap(), 9);
            let mut out = [0; 3];
            assert_eq!(ch.try_pop_slice(&mut out).unwrap(), 3);
            assert_eq!(out, [3, 4, 5]);
            assert_eq!(ch.poll().unwrap(), Streaming);
            assert_eq!(rank.sent(), []);
            assert_eq!(ch.poll().unwrap(), Done);
            let to = |dst| (PacketOp::Scatter, 1, dst);
            assert_eq!(rank.sent(), [to(0), to(2)]);
        }
    }

    /// A gather member is `Opening` until the root's grant arrived, and not
    /// `Done` while its block is staged.
    #[test]
    fn gather_member_opens_on_its_grant() {
        for scheme in SCHEMES {
            let (rank, mut ch) = gather(2, 3, scheme);
            assert_eq!(ch.state(), Opening);
            assert_eq!(ch.try_push_slice(&[7, 8, 9]).unwrap(), 0);
            assert_eq!(ch.poll().unwrap(), Opening);
            rank.sync_from(ROOT as u8);
            assert_eq!(ch.poll().unwrap(), Streaming);
            rank.block_lane();
            assert_eq!(ch.try_push_slice(&[7, 8, 9]).unwrap(), 3);
            assert_eq!(ch.poll().unwrap(), Streaming);
            assert_eq!(rank.sent(), []);
            assert_eq!(ch.poll().unwrap(), Done);
            assert_eq!(rank.sent(), [(PacketOp::Gather, 2, 1)]);
        }
    }

    /// A gather root streams from open, grants members in order, and is
    /// not `Done` while a grant is staged. The lane stays blocked, so the
    /// test hands over each member's block once the root granted it.
    #[test]
    fn gather_root_is_done_once_its_last_grant_left() {
        for scheme in SCHEMES {
            let (rank, mut ch) = gather(ROOT, 3, scheme);
            assert_eq!(ch.state(), Streaming);
            rank.block_lane();
            assert_eq!(ch.try_push_slice(&[4, 5, 6]).unwrap(), 3);
            rank.data_from(0, PacketOp::Gather, &[1, 2, 3]);
            let mut out = [0; 9];
            assert_eq!(ch.try_pop_slice(&mut out[..6]).unwrap(), 6);
            rank.data_from(2, PacketOp::Gather, &[7, 8, 9]);
            assert_eq!(ch.try_pop_slice(&mut out[6..]).unwrap(), 3);
            assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8, 9]);
            assert_eq!(ch.poll().unwrap(), Streaming);
            assert_eq!(rank.sent(), []);
            assert_eq!(ch.poll().unwrap(), Done);
            let grant = |dst| (PacketOp::Sync, 1, dst);
            assert_eq!(rank.sent(), [grant(0), grant(2)]);
        }
    }

    /// An empty message is `Done` at open, in every role, and sends nothing.
    #[test]
    fn count_zero_is_done_at_open() {
        for (scheme, me) in SCHEMES
            .into_iter()
            .flat_map(|s| (0..3).map(move |me| (s, me)))
        {
            let (rank, ch) = scatter(me, 0, scheme, false);
            assert_eq!((ch.state(), rank.sent()), (Done, vec![]), "scatter {me}");
            let (rank, ch) = gather(me, 0, scheme);
            assert_eq!((ch.state(), rank.sent()), (Done, vec![]), "gather {me}");
        }
    }

    /// A scatter member takes its block from the root only: data from a
    /// rank it granted nothing is a protocol violation.
    #[test]
    fn scatter_member_rejects_a_block_from_another_member() {
        let (rank, mut ch) = scatter(0, 3, CollectiveScheme::Linear, false);
        assert_eq!(rank.sent(), [(PacketOp::Sync, 0, 1)]);
        rank.data_from(2, PacketOp::Scatter, &[4, 5, 6]);
        let err = ch.try_pop_slice(&mut [0; 3]).unwrap_err();
        assert!(matches!(err, SmiError::ProtocolViolation { .. }), "{err:?}");
    }
}
