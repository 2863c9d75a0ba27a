//! The broadcast channel (`SMI_Open_bcast_channel` / `SMI_Bcast`).
//!
//! As in the paper's design (§4.3–4.4), a broadcast's data moves through
//! the communication kernels and never through an application's: the root
//! stages one copy per child, and an interior member of a `Tree` bcast does
//! not relay. It names its children in its port's fan-out at open, and the
//! CKR its parent's stream enters by writes a re-addressed copy of every
//! frame onto each child's link before delivering the frame locally — one
//! kernel crossing per tree hop. The interior then receives like a leaf.
//!
//! Readiness does not pass through a rank task either. A CKR of the rank
//! counts every ready-`Sync` into the port's tally, per sender. At open a
//! member arms the port with the children it waits for (`PortIo::arm`),
//! claiming those already tallied, and a non-root with its own ready-`Sync`
//! too; a CKR claims each later child as it routes its `Sync`. Whoever
//! claims the last child sends the member's own on toward its parent: the
//! open through the endpoint's lane, a CKR straight onto the parent's link.
//! So the subtree's readiness climbs the tree at kernel speed, and no
//! member — the root included — reads a `Sync`: its `Opening` state is one
//! check that no child is still awaited.

use std::marker::PhantomData;

use smi_wire::{Deframer, Frame, Framer, NetworkPacket, PacketOp, SmiType};

use crate::collectives::topology::WireEdges;
use crate::collectives::{CollectivePoll, CollectiveState};
use crate::comm::Communicator;
use crate::endpoint::{refill, BlockingStep, EndpointTableHandle, PortIo};
use crate::params::RuntimeParams;
use crate::SmiError;

/// A broadcast channel (`SMI_BChannel`). The root pushes each element to
/// every other member; non-roots receive. "If the caller is the root, it
/// will push the data towards the other ranks. Otherwise, the caller will
/// pop data elements from the network." (§3.2)
///
/// The channel is a poll-mode state machine: §3.3's one-to-all
/// synchronization (every receiver announces readiness; the root streams
/// only once all announcements arrived) runs as the `Opening` handshake
/// state, advanced by [`CollectivePoll::poll`] / the `try_*` operations
/// instead of blocking inside open.
///
/// Both [`crate::CollectiveScheme`]s run through one code path, parameterized by
/// the shape's parent/children relations: `Linear` is the star tree (the
/// root parents everyone — the paper's shape, bit-identical to the
/// pre-tree protocol), `Tree` is the hop tree
/// ([`crate::collectives::topology`]: every edge as short as the routed
/// topology allows, one physical link on the regular topologies) in which
/// an interior node's *subtree* is announced ready once its children are —
/// by the CKR or the open that claims the last of them — and its CKR
/// hands every received frame to its children as it delivers it — so each
/// packet crosses each link once, and the root stages one copy per
/// neighbour instead of `N−1`.
pub struct BcastChannel<T: SmiType> {
    count: u64,
    done: u64,
    is_root: bool,
    /// Wire ranks of the fan-out targets (linear root: every other
    /// member; tree: the hop-tree children, which an interior's CKR feeds).
    children: Vec<u8>,
    /// The root's framed app stream awaiting fan-out. Staging fans the
    /// whole window out grouped per destination (one burst-sized window,
    /// so the CKS sees long same-route runs instead of alternating
    /// destinations). Run frames fan out as re-addressed `Arc` clones.
    window: Vec<Frame>,
    state: CollectiveState,
    framer: Framer,
    deframer: Deframer,
    io: PortIo,
    _elem: PhantomData<T>,
}

impl<T: SmiType> BcastChannel<T> {
    pub(crate) fn open(
        table: EndpointTableHandle,
        comm: &Communicator,
        count: u64,
        port: usize,
        edges: WireEdges,
        params: &RuntimeParams,
    ) -> Result<Self, SmiError> {
        let mut io = PortIo::open(table, port, smi_codegen::OpKind::Bcast, T::DATATYPE, params)?;
        let WireEdges { parent, children } = edges;
        let is_root = parent.is_none();
        let port_wire = smi_wire::header::port_to_wire(port)?;
        let my_wire = comm.wire_rank(comm.rank())?;
        if count > 0 {
            // The fan-out is named before the ready-`Sync` can leave: nothing
            // reaches this member's CKR before its subtree announced itself
            // ready. An announcement this arm completes — a leaf's, or an
            // interior's whose children were all tallied — is staged here.
            let up = parent.map(|parent| {
                NetworkPacket::control(my_wire, parent, port_wire, PacketOp::Sync, 0)
            });
            io.arm(&children, up);
        }
        let mut chan = BcastChannel {
            count,
            done: 0,
            is_root,
            children,
            window: Vec::new(),
            // Zero-length message: no handshake, nothing will ever move.
            state: if count == 0 {
                CollectiveState::Done
            } else {
                CollectiveState::Opening
            },
            framer: Framer::new(T::DATATYPE, my_wire, 0, port_wire, PacketOp::Bcast),
            deframer: Deframer::new(T::DATATYPE),
            io,
            _elem: PhantomData,
        };
        // An announcement staged at arm is offered by this first advance
        // (else it goes with the last child's claim), so open itself never
        // blocks.
        chan.advance()?;
        Ok(chan)
    }

    /// One non-blocking step: flush staged packets, update the state.
    /// Returns whether the staging buffer is empty.
    fn advance(&mut self) -> Result<bool, SmiError> {
        let flushed = self.io.try_flush()?;
        match self.state {
            CollectiveState::Opening => {
                // The subtree is ready once no child is awaited; a member's
                // own announcement left with the last child's claim.
                if flushed && self.io.ctl().awaited() == 0 {
                    self.state = CollectiveState::Streaming;
                }
            }
            CollectiveState::Streaming => {
                if self.done == self.count && self.window.is_empty() && flushed {
                    self.state = CollectiveState::Done;
                }
            }
            CollectiveState::Done => {}
        }
        Ok(flushed)
    }

    /// Wire packets the fan-out window stands for (runs count whole).
    fn window_packets(&self) -> usize {
        self.window.iter().map(|f| f.packet_count()).sum()
    }

    /// Fan the buffered window out to every child, grouped per destination.
    fn stage_fanout(&mut self) {
        self.io.stage_fanout(&mut self.window, &self.children);
    }

    /// Non-blocking bulk `SMI_Bcast`: at the root, consumes elements of
    /// `data` (framing them into fan-out bursts); elsewhere, fills `data`
    /// with received elements. Returns how many elements were processed
    /// (possibly 0 — the channel never blocks, including while the open
    /// handshake is still in progress).
    ///
    /// A slice larger than the channel's remaining count fails atomically
    /// up front: nothing is consumed.
    pub fn try_bcast_slice(&mut self, data: &mut [T]) -> Result<usize, SmiError> {
        if data.len() as u64 > self.count - self.done {
            return Err(SmiError::CountExceeded { count: self.count });
        }
        let flushed = self.advance()?;
        if self.state == CollectiveState::Opening || data.is_empty() {
            return Ok(0);
        }
        if self.is_root {
            if !flushed {
                return Ok(0);
            }
            let mut consumed = 0usize;
            while consumed < data.len() {
                let to_end = (self.count - self.done) as usize;
                let (take, frame) =
                    self.framer
                        .frame_slice(&data[consumed..], to_end, self.io.max_burst());
                self.io.meter().add_bytes(take * T::DATATYPE.size_bytes());
                self.window.extend(frame);
                consumed += take;
                self.done += take as u64;
                if self.window_packets() >= self.io.max_burst() || self.done == self.count {
                    self.stage_fanout();
                    if !self.io.try_flush()? {
                        break;
                    }
                }
            }
            self.advance()?;
            Ok(consumed)
        } else {
            let mut filled = 0usize;
            while filled < data.len() {
                if self.deframer.is_empty() {
                    let Some(frame) = self.io.try_recv_data_frame()? else {
                        break;
                    };
                    refill(&mut self.deframer, frame, PacketOp::Bcast, self.io.meter())?;
                }
                let n = self.deframer.pop_slice(&mut data[filled..]);
                filled += n;
                self.done += n as u64;
            }
            // The final copy, into the member's slice: one charge per call.
            self.io.meter().add_bytes(filled * T::DATATYPE.size_bytes());
            if self.done == self.count {
                self.advance()?;
            }
            Ok(filled)
        }
    }

    /// Bulk `SMI_Bcast`, blocking until the whole slice is processed: the
    /// root's elements are all handed to the transport (a final partial
    /// packet is retained until the message completes, as with per-element
    /// pushes); non-roots return once `data` is filled. A call that
    /// completes the channel's whole message additionally drives the
    /// channel to `Done`: the root's last staged packets are handed over.
    /// An interior member has no forwarding duty left to finish — its CKR
    /// copied every frame to the children before delivering it here.
    pub fn bcast_slice(&mut self, data: &mut [T]) -> Result<(), SmiError> {
        if data.len() as u64 > self.count - self.done {
            return Err(SmiError::CountExceeded { count: self.count });
        }
        let mut off = 0usize;
        self.io.wait().on("bcast progress", || {
            let moved = self.try_bcast_slice(&mut data[off..])?;
            off += moved;
            if off == data.len()
                && self.flush_call_end()?
                && (self.done < self.count || self.poll()? == CollectiveState::Done)
            {
                return Ok(BlockingStep::Ready(()));
            }
            Ok(if moved > 0 {
                BlockingStep::Progress
            } else {
                BlockingStep::Pending
            })
        })
    }

    /// Stage any buffered fan-out window and offer everything staged: the
    /// blocking API forwards each completed packet at call granularity
    /// (per-element pushes keep the paper's packet-by-packet liveness).
    fn flush_call_end(&mut self) -> Result<bool, SmiError> {
        if !self.window.is_empty() {
            self.stage_fanout();
        }
        self.io.try_flush()
    }

    /// `SMI_Bcast`: at the root, sends `*data`; elsewhere, overwrites `*data`
    /// with the received element. Blocking form.
    pub fn bcast(&mut self, data: &mut T) -> Result<(), SmiError> {
        self.bcast_slice(std::slice::from_mut(data))
    }

    /// Spin the open handshake to completion (thread-plane blocking open):
    /// a child claimed since the last spin counts as progress.
    pub(crate) fn wait_open(&mut self) -> Result<(), SmiError> {
        let mut awaited = usize::MAX;
        self.io.wait().on("bcast open rendezvous", || {
            self.advance()?;
            if self.state != CollectiveState::Opening {
                return Ok(BlockingStep::Ready(()));
            }
            let before = std::mem::replace(&mut awaited, self.io.ctl().awaited());
            Ok(if awaited < before {
                BlockingStep::Progress
            } else {
                BlockingStep::Pending
            })
        })
    }

    /// Elements broadcast so far.
    pub fn progressed(&self) -> u64 {
        self.done
    }
}

impl<T: SmiType> CollectivePoll for BcastChannel<T> {
    fn poll(&mut self) -> Result<CollectiveState, SmiError> {
        self.advance()?;
        Ok(self.state)
    }

    fn state(&self) -> CollectiveState {
        self.state
    }
}
