//! The scatter channel (`SMI_Open_scatter_channel` analogue).
//!
//! The root pushes `count × N` elements in communicator order; every member
//! (including the root) pops its `count`-element slice. Each member's block
//! is an ordinary `(root, owner)` stream, as in the paper's support kernels
//! (§4.4): the root frames it addressed to its owner, ending a frame at
//! every block boundary, and the owner pops it from its own delivery the way
//! a point-to-point receive does. No other member touches a block.
//!
//! The tree the channel opens with carries readiness only (§3.3): a member
//! announces itself ready to its parent once all its children have, and the
//! root streams member `m`'s block once `m` announced, if `m` is a root
//! child, or once every root child announced its subtree otherwise. Under
//! the star every member is a root child, which is the paper's per-member
//! rendezvous. Readiness is absorbed non-blockingly, so the core never
//! parks a thread.

use std::collections::VecDeque;
use std::marker::PhantomData;

use smi_wire::{Deframer, Frame, Framer, NetworkPacket, PacketOp, SmiType};

use crate::collectives::topology::WireEdges;
use crate::collectives::{CollectivePoll, CollectiveState};
use crate::comm::Communicator;
use crate::endpoint::{expect_op, refill, BlockingStep, EndpointTableHandle, PortIo};
use crate::params::RuntimeParams;
use crate::SmiError;

/// A scatter channel, as a poll-mode core with bulk `push_slice` /
/// `pop_slice` operations and non-blocking `try_*` forms.
pub struct ScatterChannel<T: SmiType> {
    /// Elements per member.
    count: u64,
    is_root: bool,
    my_wire: u8,
    port_wire: u8,
    /// Wire rank of the tree parent (None at the root).
    parent: Option<u8>,
    /// Wire ranks of the children whose readiness this member collects.
    children: Vec<u8>,
    /// Readiness per child.
    child_ready: Vec<bool>,
    ready: usize,
    sync_staged: bool,
    /// Root: the block owners' wire ranks, in communicator order.
    owners: Vec<u8>,
    /// Root: pushed elements so far (0..count*N).
    pushed: u64,
    /// Popped elements so far (0..count).
    popped: u64,
    /// Root's own slice, buffered locally.
    local: VecDeque<T>,
    state: CollectiveState,
    framer: Framer,
    deframer: Deframer,
    io: PortIo,
    _elem: PhantomData<T>,
}

impl<T: SmiType> ScatterChannel<T> {
    pub(crate) fn open(
        table: EndpointTableHandle,
        comm: &Communicator,
        count: u64,
        port: usize,
        edges: WireEdges,
        params: &RuntimeParams,
    ) -> Result<Self, SmiError> {
        let io = PortIo::open(
            table,
            port,
            smi_codegen::OpKind::Scatter,
            T::DATATYPE,
            params,
        )?;
        let WireEdges { parent, children } = edges;
        let is_root = parent.is_none();
        let owners = if is_root {
            (0..comm.size())
                .map(|m| comm.wire_rank(m))
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        let port_wire = smi_wire::header::port_to_wire(port)?;
        let my_wire = comm.wire_rank(comm.rank())?;
        let mut chan = ScatterChannel {
            count,
            is_root,
            my_wire,
            port_wire,
            parent,
            child_ready: vec![false; children.len()],
            children,
            ready: 0,
            sync_staged: false,
            owners,
            pushed: 0,
            popped: 0,
            local: VecDeque::new(),
            state: CollectiveState::Opening,
            framer: Framer::new(T::DATATYPE, my_wire, 0, port_wire, PacketOp::Scatter),
            deframer: Deframer::new(T::DATATYPE),
            io,
            _elem: PhantomData,
        };
        if count == 0 {
            chan.state = CollectiveState::Done;
        } else if chan.is_root {
            // The root streams each block once its owner is ready; its own
            // open side has nothing to wait for.
            chan.state = CollectiveState::Streaming;
        }
        // A non-root leaf's announcement is staged by this first advance
        // (an interior member's only once its children announced).
        chan.advance()?;
        Ok(chan)
    }

    /// The elements the root pushes in all (0 elsewhere).
    fn total(&self) -> u64 {
        self.count * self.owners.len() as u64
    }

    /// One non-blocking step: flush staged packets, absorb ready syncs,
    /// announce this member's subtree once it is ready, update the state.
    fn advance(&mut self) -> Result<bool, SmiError> {
        let mut flushed = self.io.try_flush()?;
        if self.state == CollectiveState::Done {
            return Ok(flushed);
        }
        self.absorb_syncs()?;
        if self.state == CollectiveState::Opening && self.ready == self.children.len() {
            if !self.sync_staged {
                let parent = self.parent.expect("non-root has a parent");
                let sync =
                    NetworkPacket::control(self.my_wire, parent, self.port_wire, PacketOp::Sync, 0);
                self.io.stage(sync);
                self.sync_staged = true;
                flushed = self.io.try_flush()?;
            }
            if flushed {
                self.state = CollectiveState::Streaming;
            }
        }
        if self.state == CollectiveState::Streaming
            && self.pushed == self.total()
            && self.popped == self.count
            && flushed
        {
            self.state = CollectiveState::Done;
        }
        Ok(flushed)
    }

    /// Record the ready announcements delivered so far, until every child
    /// announced. Any other `Sync` — a second one from a child, or one from
    /// a member that is no child here — is for the port's next message (its
    /// sender finished this one and opened the next at once), so it waits
    /// for that open.
    fn absorb_syncs(&mut self) -> Result<(), SmiError> {
        while self.ready < self.children.len() {
            let Some(sync) = self.io.try_recv_data()? else {
                break;
            };
            expect_op(&sync.header, PacketOp::Sync)?;
            let src = sync.header.src;
            match self.children.iter().position(|&w| w == src) {
                Some(c) if !self.child_ready[c] => {
                    self.child_ready[c] = true;
                    self.ready += 1;
                }
                _ => self.io.carry(sync),
            }
        }
        Ok(())
    }

    /// Root: whether `owner`'s block may stream — its own announcement if
    /// it is a root child, every root child's otherwise.
    fn owner_ready(&self, owner: u8) -> bool {
        match self.children.iter().position(|&w| w == owner) {
            Some(c) => self.child_ready[c],
            None => self.ready == self.children.len(),
        }
    }

    /// Non-blocking bulk push (root only): feed the next elements of the
    /// `count × N` source stream. Consumes as many elements as transport
    /// capacity and the owners' readiness currently allow; `Ok(0)` means
    /// "try again later".
    pub fn try_push_slice(&mut self, values: &[T]) -> Result<usize, SmiError> {
        if !self.is_root {
            return Err(SmiError::ProtocolViolation {
                detail: "scatter push on a non-root rank".into(),
            });
        }
        let total = self.total();
        if values.len() as u64 > total - self.pushed {
            return Err(SmiError::CountExceeded { count: total });
        }
        if !self.advance()? || values.is_empty() {
            return Ok(0);
        }
        let size = T::DATATYPE.size_bytes();
        let mut consumed = 0usize;
        while consumed < values.len() {
            let owner = self.owners[(self.pushed / self.count) as usize];
            let block_left = (self.count - self.pushed % self.count) as usize;
            let chunk = &values[consumed..consumed + block_left.min(values.len() - consumed)];
            if owner == self.my_wire {
                // Own slice: buffered locally, no handshake.
                self.local.extend(chunk.iter().copied());
                self.io.meter().add_bytes(chunk.len() * size);
                self.pushed += chunk.len() as u64;
                consumed += chunk.len();
                continue;
            }
            if !self.owner_ready(owner) {
                self.absorb_syncs()?;
                if !self.owner_ready(owner) {
                    break;
                }
            }
            // A frame ends at the block's end at the latest, so every frame
            // belongs to one owner's stream.
            let (take, frame) = self.framer.frame_slice(chunk, block_left, usize::MAX);
            self.io.meter().add_bytes(take * size);
            self.pushed += take as u64;
            consumed += take;
            if let Some(mut frame) = frame {
                frame.header_mut().dst = owner;
                self.io.stage_frame(frame);
                if self.io.stage_full() && !self.io.try_flush()? {
                    break;
                }
            }
        }
        self.advance()?;
        Ok(consumed)
    }

    /// Bulk push (root only), blocking until the whole slice was accepted.
    pub fn push_slice(&mut self, values: &[T]) -> Result<(), SmiError> {
        let mut off = 0usize;
        self.io.wait().on("scatter push progress", || {
            let moved = self.try_push_slice(&values[off..])?;
            off += moved;
            if off == values.len() && self.io.try_flush()? {
                return Ok(BlockingStep::Ready(()));
            }
            Ok(if moved > 0 {
                BlockingStep::Progress
            } else {
                BlockingStep::Pending
            })
        })
    }

    /// Root only: feed the next element of the `count × N` source stream.
    /// Blocking form.
    pub fn push(&mut self, value: &T) -> Result<(), SmiError> {
        self.push_slice(std::slice::from_ref(value))
    }

    /// Non-blocking bulk pop: drain whatever of this member's slice has
    /// arrived (root: whatever of its own slice it already pushed) into
    /// `out`; returns how many elements were written.
    pub fn try_pop_slice(&mut self, out: &mut [T]) -> Result<usize, SmiError> {
        if out.len() as u64 > self.count - self.popped {
            return Err(SmiError::CountExceeded { count: self.count });
        }
        self.advance()?;
        let mut filled = 0usize;
        if self.is_root {
            filled = out.len().min(self.local.len());
            for (slot, v) in out.iter_mut().zip(self.local.drain(..filled)) {
                *slot = v;
            }
            self.io.meter().add_bytes(filled * T::DATATYPE.size_bytes());
        } else if self.state != CollectiveState::Opening {
            while filled < out.len() {
                if self.deframer.is_empty() {
                    match self.io.try_recv_data_frame()? {
                        // A child that finished this message announces
                        // itself ready for the port's next: that open reads it.
                        Some(Frame::Pkt(sync)) if sync.header.op == PacketOp::Sync => {
                            self.io.carry(sync);
                            continue;
                        }
                        Some(frame) => refill(
                            &mut self.deframer,
                            frame,
                            PacketOp::Scatter,
                            self.io.meter(),
                        )?,
                        None => break,
                    }
                }
                let n = self.deframer.pop_slice(&mut out[filled..]);
                self.io.meter().add_bytes(n * T::DATATYPE.size_bytes());
                filled += n;
            }
        }
        self.popped += filled as u64;
        if self.popped == self.count {
            self.advance()?;
        }
        Ok(filled)
    }

    /// Bulk pop, blocking until `out` is filled. At the root the slice must
    /// already have been pushed (the root's own elements cannot arrive from
    /// anywhere else), so a shortfall is a protocol violation, not a stall.
    pub fn pop_slice(&mut self, out: &mut [T]) -> Result<(), SmiError> {
        if out.len() as u64 > self.count - self.popped {
            return Err(SmiError::CountExceeded { count: self.count });
        }
        let is_root = self.is_root;
        let mut off = 0usize;
        self.io.wait().on("scatter data", || {
            let moved = self.try_pop_slice(&mut out[off..])?;
            off += moved;
            if off == out.len() {
                return Ok(BlockingStep::Ready(()));
            }
            if is_root {
                // Nothing can refill the local buffer but this caller.
                return Err(SmiError::ProtocolViolation {
                    detail: "scatter pop before the root pushed its own slice".into(),
                });
            }
            Ok(if moved > 0 {
                BlockingStep::Progress
            } else {
                BlockingStep::Pending
            })
        })
    }

    /// Pop the next element of this member's slice. Blocking form.
    pub fn pop(&mut self) -> Result<T, SmiError> {
        let mut out = [crate::collectives::zero_elem::<T>()];
        self.pop_slice(&mut out)?;
        Ok(out[0])
    }

    /// Spin until the open-side handshake traffic left (thread plane).
    pub(crate) fn wait_open(&mut self) -> Result<(), SmiError> {
        self.io.wait().on("scatter sync path", || {
            let before = self.ready;
            self.advance()?;
            if self.state != CollectiveState::Opening {
                Ok(BlockingStep::Ready(()))
            } else if self.ready > before {
                Ok(BlockingStep::Progress)
            } else {
                Ok(BlockingStep::Pending)
            }
        })
    }
}

impl<T: SmiType> CollectivePoll for ScatterChannel<T> {
    fn poll(&mut self) -> Result<CollectiveState, SmiError> {
        self.advance()?;
        Ok(self.state)
    }

    fn state(&self) -> CollectiveState {
        self.state
    }
}
