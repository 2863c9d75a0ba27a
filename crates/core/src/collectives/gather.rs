//! The gather channel (`SMI_Open_gather_channel` analogue).
//!
//! Every member pushes `count` elements; the root pops `count × N` elements
//! in communicator order. "The root rank must communicate to each source
//! rank when it is ready to receive the given sequence of data" (§3.3): a
//! member waits for one `Sync` grant from the root, then streams its block
//! to the root as an ordinary `(member, root)` stream, framed the way the
//! eager point-to-point sender frames. No other member touches a block, and
//! the grant wait never parks a worker (it is absorbed non-blockingly).
//!
//! The root grants members in communicator order and sorts what arrives by
//! source: frames wait in their member's stash until the pop cursor reaches
//! that member, and a frame from a member without a grant is a protocol
//! violation. The root drains its delivery on every poll, so a member
//! granted ahead never parks the CKR that delivers to the root. Under
//! [`CollectiveScheme::Linear`] the root grants one member at a time, the
//! paper's serial grants; under [`CollectiveScheme::Tree`] it keeps granting
//! while the blocks granted past the cursor member fit
//! `max(count, burst_packets × elems_per_packet)` elements — a small gather
//! grants every member at once, a bulk one keeps one block in flight ahead
//! of the one it pops.

use std::collections::VecDeque;
use std::marker::PhantomData;

use smi_wire::{Deframer, Frame, Framer, NetworkPacket, PacketOp, SmiType};

use crate::collectives::topology::CollectiveScheme;
use crate::collectives::{CollectivePoll, CollectiveState};
use crate::comm::Communicator;
use crate::endpoint::{expect_op, refill, BlockingStep, EndpointTableHandle, PortIo};
use crate::params::RuntimeParams;
use crate::SmiError;

/// A gather channel, as a poll-mode core with bulk `push_slice` /
/// `pop_slice` operations and non-blocking `try_*` forms.
pub struct GatherChannel<T: SmiType> {
    /// Elements per member.
    count: u64,
    my_wire: u8,
    port_wire: u8,
    root_wire: u8,
    is_root: bool,
    /// The root's communicator index.
    root_idx: usize,
    /// Root: every member's wire rank, in communicator order.
    members: Vec<u8>,
    /// Root: the elements grants may run past the cursor member (0: one
    /// member at a time).
    ahead: u64,
    /// Root: members `..granted` (communicator order) hold their grant.
    granted: usize,
    /// Root: per member, its frames not yet popped.
    stash: Vec<VecDeque<Frame>>,
    pushed: u64,
    popped: u64,
    /// The root's own contribution, buffered locally.
    local: VecDeque<T>,
    state: CollectiveState,
    framer: Framer,
    deframer: Deframer,
    io: PortIo,
    _elem: PhantomData<T>,
}

impl<T: SmiType> GatherChannel<T> {
    pub(crate) fn open(
        table: EndpointTableHandle,
        comm: &Communicator,
        count: u64,
        port: usize,
        root: usize,
        params: &RuntimeParams,
    ) -> Result<Self, SmiError> {
        let root_wire = comm.wire_rank(root)?;
        let io = PortIo::open(
            table,
            port,
            smi_codegen::OpKind::Gather,
            T::DATATYPE,
            params,
        )?;
        let is_root = comm.rank() == root;
        let port_wire = smi_wire::header::port_to_wire(port)?;
        let my_wire = comm.wire_rank(comm.rank())?;
        let members = if is_root {
            (0..comm.size())
                .map(|m| comm.wire_rank(m))
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        let ahead = match params.collective_scheme {
            CollectiveScheme::Linear => 0,
            CollectiveScheme::Tree => {
                let burst = io.max_burst() * T::DATATYPE.elems_per_packet();
                count.max(burst as u64)
            }
        };
        Ok(GatherChannel {
            count,
            my_wire,
            port_wire,
            root_wire,
            is_root,
            root_idx: root,
            stash: vec![VecDeque::new(); members.len()],
            members,
            ahead,
            granted: 0,
            pushed: 0,
            popped: 0,
            local: VecDeque::new(),
            state: if count == 0 {
                CollectiveState::Done
            } else if is_root {
                CollectiveState::Streaming
            } else {
                // A member streams once the root's grant arrived.
                CollectiveState::Opening
            },
            framer: Framer::new(T::DATATYPE, my_wire, root_wire, port_wire, PacketOp::Gather),
            deframer: Deframer::new(T::DATATYPE),
            io,
            _elem: PhantomData,
        })
    }

    /// Communicator index of the member the root pops from.
    fn cursor(&self) -> usize {
        (self.popped / self.count) as usize
    }

    /// One non-blocking step: flush staged packets, absorb a member's
    /// grant, run the root's grants and drain, update the state.
    fn advance(&mut self) -> Result<bool, SmiError> {
        let mut flushed = self.io.try_flush()?;
        match self.state {
            CollectiveState::Opening => {
                while let Some(sync) = self.io.try_recv_data()? {
                    expect_op(&sync.header, PacketOp::Sync)?;
                    if sync.header.src == self.root_wire {
                        self.state = CollectiveState::Streaming;
                        break;
                    }
                    // Another member's grant, as the root of the port's
                    // next message: that open reads it.
                    self.io.carry(sync);
                }
            }
            CollectiveState::Streaming if self.is_root => {
                self.grant();
                self.drain()?;
                flushed = self.io.try_flush()?;
            }
            _ => {}
        }
        let total = self.count * self.members.len() as u64;
        if self.state == CollectiveState::Streaming
            && self.pushed == self.count
            && self.popped == total
            && flushed
        {
            self.state = CollectiveState::Done;
        }
        Ok(flushed)
    }

    /// Root: stage grants in communicator order — the cursor member's, and
    /// further members' while the blocks granted past the cursor member fit
    /// `ahead` elements. The root's own block needs no grant.
    fn grant(&mut self) {
        let cursor = self.cursor();
        while let Some(&member) = self.members.get(self.granted) {
            if self.granted > cursor {
                let own = (cursor + 1..=self.granted).contains(&self.root_idx);
                let past = (self.granted - cursor - usize::from(own)) as u64 * self.count;
                if past > self.ahead {
                    break;
                }
            }
            if member != self.my_wire {
                let (me, port) = (self.my_wire, self.port_wire);
                self.io
                    .stage(NetworkPacket::control(me, member, port, PacketOp::Sync, 0));
            }
            self.granted += 1;
        }
    }

    /// Root: sort every delivered frame into its member's stash. A `Sync`
    /// is a grant for the port's next message, whose root this member is
    /// not; it waits for that open.
    fn drain(&mut self) -> Result<(), SmiError> {
        while let Some(frame) = self.io.try_recv_data_frame()? {
            let frame = match frame {
                Frame::Pkt(sync) if sync.header.op == PacketOp::Sync => {
                    self.io.carry(sync);
                    continue;
                }
                frame => frame,
            };
            expect_op(frame.header(), PacketOp::Gather)?;
            let src = frame.header().src;
            let Some(m) = (self.cursor()..self.granted).find(|&m| self.members[m] == src) else {
                return Err(SmiError::ProtocolViolation {
                    detail: format!("gather data from {src}, which holds no grant"),
                });
            };
            self.stash[m].push_back(frame);
        }
        Ok(())
    }

    /// Non-blocking bulk push of this member's contribution. A member
    /// consumes as many elements as its grant and transport capacity
    /// currently allow; the root buffers its own contribution locally
    /// (bounded by `count`) until the pop cursor reaches it.
    pub fn try_push_slice(&mut self, values: &[T]) -> Result<usize, SmiError> {
        if values.len() as u64 > self.count - self.pushed {
            return Err(SmiError::CountExceeded { count: self.count });
        }
        let size = T::DATATYPE.size_bytes();
        if self.is_root {
            self.local.extend(values.iter().copied());
            self.io.meter().add_bytes(values.len() * size);
            self.pushed += values.len() as u64;
            self.advance()?;
            return Ok(values.len());
        }
        // Data may only move after the root's go-ahead.
        if !self.advance()? || self.state != CollectiveState::Streaming {
            return Ok(0);
        }
        let mut consumed = 0usize;
        while consumed < values.len() {
            let to_end = (self.count - self.pushed) as usize;
            let (take, frame) = self
                .framer
                .frame_slice(&values[consumed..], to_end, usize::MAX);
            self.io.meter().add_bytes(take * size);
            consumed += take;
            self.pushed += take as u64;
            if let Some(frame) = frame {
                self.io.stage_frame(frame);
                if self.io.stage_full() && !self.io.try_flush()? {
                    break;
                }
            }
        }
        self.advance()?;
        Ok(consumed)
    }

    /// Bulk push, blocking until the whole contribution slice was accepted.
    pub fn push_slice(&mut self, values: &[T]) -> Result<(), SmiError> {
        if values.len() as u64 > self.count - self.pushed {
            return Err(SmiError::CountExceeded { count: self.count });
        }
        let mut off = 0usize;
        self.io.wait().on("gather grant", || {
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

    /// Push the next element of this member's contribution. Blocking form.
    pub fn push(&mut self, value: &T) -> Result<(), SmiError> {
        self.push_slice(std::slice::from_ref(value))
    }

    /// Non-blocking bulk pop (root only): drain whatever of the gathered
    /// `count × N` stream is available, granting sources as their slices
    /// come up. Returns how many elements were written.
    pub fn try_pop_slice(&mut self, out: &mut [T]) -> Result<usize, SmiError> {
        if !self.is_root {
            return Err(SmiError::ProtocolViolation {
                detail: "gather pop on a non-root rank".into(),
            });
        }
        let total = self.count * self.members.len() as u64;
        if out.len() as u64 > total - self.popped {
            return Err(SmiError::CountExceeded { count: total });
        }
        self.advance()?;
        let mut filled = 0usize;
        while filled < out.len() {
            let cursor = self.cursor();
            let block_left = (self.count - self.popped % self.count) as usize;
            let end = filled + block_left.min(out.len() - filled);
            let dst = &mut out[filled..end];
            let n = if cursor == self.root_idx {
                let n = dst.len().min(self.local.len());
                for (slot, v) in dst.iter_mut().zip(self.local.drain(..n)) {
                    *slot = v;
                }
                n
            } else {
                if self.deframer.is_empty() {
                    if self.stash[cursor].is_empty() {
                        self.drain()?;
                    }
                    let Some(frame) = self.stash[cursor].pop_front() else {
                        break;
                    };
                    refill(&mut self.deframer, frame, PacketOp::Gather, self.io.meter())?;
                }
                self.deframer.pop_slice(dst)
            };
            if n == 0 {
                break;
            }
            self.io.meter().add_bytes(n * T::DATATYPE.size_bytes());
            filled += n;
            self.popped += n as u64;
            if n == block_left && !self.deframer.is_empty() {
                return Err(SmiError::ProtocolViolation {
                    detail: "gather frame straddles a member block".into(),
                });
            }
        }
        if filled > 0 {
            // Grant the members the cursor moved up to.
            self.advance()?;
        }
        Ok(filled)
    }

    /// Bulk pop (root only), blocking until `out` is filled. The root's own
    /// slice must already have been pushed when its turn comes up (nothing
    /// else can supply it), so a shortfall there is a protocol violation.
    pub fn pop_slice(&mut self, out: &mut [T]) -> Result<(), SmiError> {
        let mut off = 0usize;
        self.io.wait().on("gather data", || {
            let moved = self.try_pop_slice(&mut out[off..])?;
            off += moved;
            if off == out.len() {
                return Ok(BlockingStep::Ready(()));
            }
            if moved > 0 {
                return Ok(BlockingStep::Progress);
            }
            // Stalled: distinguish "waiting for the network" from "waiting
            // for our own unpushed contribution", which can never arrive.
            if self.cursor() == self.root_idx && self.local.is_empty() && self.pushed < self.count {
                return Err(SmiError::ProtocolViolation {
                    detail: "gather pop before the root pushed its own contribution".into(),
                });
            }
            Ok(BlockingStep::Pending)
        })
    }

    /// Root only: pop the next element of the gathered stream. Blocking.
    pub fn pop(&mut self) -> Result<T, SmiError> {
        let mut out = [crate::collectives::zero_elem::<T>()];
        self.pop_slice(&mut out)?;
        Ok(out[0])
    }
}

impl<T: SmiType> CollectivePoll for GatherChannel<T> {
    fn poll(&mut self) -> Result<CollectiveState, SmiError> {
        self.advance()?;
        Ok(self.state)
    }

    fn state(&self) -> CollectiveState {
        self.state
    }
}
