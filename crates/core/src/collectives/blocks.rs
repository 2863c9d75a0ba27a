//! The block protocol scatter and gather share (§3.3, §4.4): the rank that
//! receives a block grants it with one `Sync`, and the sender then streams
//! it as an ordinary `(sender, receiver)` stream on the point-to-point data
//! path. The two collectives run it in opposite directions:
//!
//! | rank | sends | receives |
//! |---|---|---|
//! | scatter root | every member's block | its own block |
//! | scatter member | — | its block, granted at open |
//! | gather root | its own block | every member's block |
//! | gather member | its block | — |
//!
//! The sender streams its blocks in communicator order, each once its
//! receiver's grant arrived, and frames each as one run that ends at the
//! block boundary. A grant never reaches the sender's data delivery: a CKR
//! of its rank tallies it per sender in the port's `Sync` state, and the
//! sender claims one per ungranted block from there, so a grant for a
//! later message (its receiver finished this one and opened the next at
//! once) simply stays tallied for that open. The receiver pops blocks in
//! the same order: it grants the block at its pop cursor, and further
//! blocks while those granted past the cursor fit `ahead` elements, sorts
//! what arrives into per-block stashes and rejects a frame from a rank that
//! holds no grant. A root's own block needs no grant: it waits in a local
//! buffer between the root's push and its pop. Nothing here parks a
//! thread.

use std::collections::VecDeque;

use smi_codegen::OpKind;
use smi_wire::{Deframer, Frame, Framer, NetworkPacket, PacketOp, SmiType};

use crate::collectives::topology::CollectiveScheme;
use crate::collectives::CollectiveState;
use crate::comm::Communicator;
use crate::endpoint::{expect_op, refill, BlockingStep, EndpointTableHandle, PortIo};
use crate::params::RuntimeParams;
use crate::SmiError;

/// The sending role: one block per entry of `peers`.
struct BlockSender {
    /// Each block's receiver (wire rank), in communicator order.
    peers: Vec<u8>,
    /// Per block, whether it may stream: its grant arrived, or it is the
    /// rank's own.
    granted: Vec<bool>,
    /// Blocks still waiting for their grant.
    ungranted: usize,
    pushed: u64,
    framer: Framer,
}

/// The receiving role: one block per entry of `peers`.
struct BlockReceiver {
    /// Each block's sender (wire rank), in communicator order.
    peers: Vec<u8>,
    /// The rank's own block, if it receives one.
    own: Option<usize>,
    /// The elements grants may run past the cursor block (0: one block at
    /// a time).
    ahead: u64,
    /// Blocks `..granted` hold their grant.
    granted: usize,
    /// The block the receiver pops from.
    cursor: usize,
    /// Per block, its frames not yet popped.
    stash: Vec<VecDeque<Frame>>,
    popped: u64,
    deframer: Deframer,
}

/// One rank's end of a scatter or gather: a sender and a receiver of
/// `count`-element blocks over one port, either of which may hold no block.
pub(crate) struct Blocks<T: SmiType> {
    /// Elements per block.
    count: u64,
    /// `PacketOp::Scatter` or `PacketOp::Gather`.
    op: PacketOp,
    my_wire: u8,
    port_wire: u8,
    send: BlockSender,
    recv: BlockReceiver,
    /// The root's own block, between its push and its pop.
    local: VecDeque<T>,
    state: CollectiveState,
    io: PortIo,
}

impl<T: SmiType> Blocks<T> {
    /// Open `kind` (`Scatter` or `Gather`) on `port`, rooted at communicator
    /// rank `root`. A gather root grants ahead under
    /// [`CollectiveScheme::Tree`] while the blocks past its cursor fit
    /// `max(count, burst_packets × elems_per_packet)` elements.
    pub fn open(
        table: EndpointTableHandle,
        comm: &Communicator,
        count: u64,
        port: usize,
        root: usize,
        kind: OpKind,
        params: &RuntimeParams,
    ) -> Result<Self, SmiError> {
        let root_wire = comm.wire_rank(root)?;
        let io = PortIo::open(table, port, kind, T::DATATYPE, params)?;
        let port_wire = smi_wire::header::port_to_wire(port)?;
        let my_wire = comm.wire_rank(comm.rank())?;
        let is_root = comm.rank() == root;
        // The root deals with every member, a member with the root only.
        let every = if is_root {
            (0..comm.size())
                .map(|m| comm.wire_rank(m))
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        let (op, send, recv) = match kind {
            OpKind::Scatter => (PacketOp::Scatter, every, vec![root_wire]),
            _ => (PacketOp::Gather, vec![root_wire], every),
        };
        let granted: Vec<bool> = send.iter().map(|&w| w == my_wire).collect();
        let ahead = match params.collective_scheme {
            CollectiveScheme::Linear => 0,
            CollectiveScheme::Tree => {
                let burst = io.max_burst() * T::DATATYPE.elems_per_packet();
                count.max(burst as u64)
            }
        };
        let mut blocks = Blocks {
            count,
            op,
            my_wire,
            port_wire,
            send: BlockSender {
                ungranted: granted.iter().filter(|&&g| !g).count(),
                granted,
                peers: send,
                pushed: 0,
                framer: Framer::new(T::DATATYPE, my_wire, 0, port_wire, op),
            },
            recv: BlockReceiver {
                own: recv.iter().position(|&w| w == my_wire),
                stash: vec![VecDeque::new(); recv.len()],
                peers: recv,
                ahead,
                granted: 0,
                cursor: 0,
                popped: 0,
                deframer: Deframer::new(T::DATATYPE),
            },
            local: VecDeque::new(),
            state: if count == 0 {
                CollectiveState::Done
            } else if is_root {
                CollectiveState::Streaming
            } else {
                CollectiveState::Opening
            },
            io,
        };
        if !is_root {
            // A member's handshake starts at open, a root's on its first poll.
            blocks.advance()?;
        }
        Ok(blocks)
    }

    /// The elements this rank sends in all.
    fn send_total(&self) -> u64 {
        self.count * self.send.peers.len() as u64
    }

    /// The elements this rank receives in all.
    fn recv_total(&self) -> u64 {
        self.count * self.recv.peers.len() as u64
    }

    /// One non-blocking step: claim grants, stage the receiver's grants,
    /// flush, update the state. While blocks past the cursor hold grants,
    /// it also stashes what arrived: their frames could otherwise fill the
    /// delivery ahead of the cursor block's and park the CKR that feeds it
    /// (the cursor block alone is read as it is popped). A member is
    /// `Opening` until its one block is granted — as sender, until the
    /// root's grant arrived; as receiver, until its own grant left.
    fn advance(&mut self) -> Result<bool, SmiError> {
        if self.state != CollectiveState::Done {
            self.claim();
            self.grant();
            if self.recv.granted > self.recv.cursor + 1 {
                self.drain()?;
            }
        }
        let flushed = self.io.try_flush()?;
        if self.state == CollectiveState::Opening
            && self.send.ungranted == 0
            && self.recv.granted == self.recv.peers.len()
            && flushed
        {
            self.state = CollectiveState::Streaming;
        }
        if self.state == CollectiveState::Streaming
            && self.send.pushed == self.send_total()
            && self.recv.popped == self.recv_total()
            && flushed
        {
            self.state = CollectiveState::Done;
        }
        Ok(flushed)
    }

    /// Sender: claim each ungranted block's grant from the port's tally.
    /// Any other tallied `Sync` — a second one from a receiver, or one from
    /// a rank that receives nothing from this one — is for the port's next
    /// message and stays for that open.
    fn claim(&mut self) {
        if self.send.ungranted == 0 {
            return;
        }
        let mut tally = self.io.ctl().lock();
        for (granted, &peer) in self.send.granted.iter_mut().zip(&self.send.peers) {
            if !*granted && tally.claim(peer) {
                *granted = true;
                self.send.ungranted -= 1;
            }
        }
    }

    /// Receiver: stage grants in block order — the cursor block's, and
    /// further blocks' while those granted past the cursor fit `ahead`
    /// elements. The own block needs no grant and takes no budget.
    fn grant(&mut self) {
        let cursor = self.recv.cursor;
        while let Some(&src) = self.recv.peers.get(self.recv.granted) {
            let next = self.recv.granted;
            if next > cursor {
                let own = self
                    .recv
                    .own
                    .is_some_and(|b| (cursor + 1..=next).contains(&b));
                let past = (next - cursor - usize::from(own)) as u64 * self.count;
                if past > self.recv.ahead {
                    break;
                }
            }
            if src != self.my_wire {
                let (me, port) = (self.my_wire, self.port_wire);
                self.io
                    .stage(NetworkPacket::control(me, src, port, PacketOp::Sync, 0));
            }
            self.recv.granted += 1;
        }
    }

    /// Receiver: sort every delivered frame into its block's stash. A
    /// frame from a rank that holds no grant from this one is a protocol
    /// violation.
    fn drain(&mut self) -> Result<(), SmiError> {
        while let Some(frame) = self.io.try_recv_data_frame()? {
            expect_op(frame.header(), self.op)?;
            let src = frame.header().src;
            let peers = &self.recv.peers;
            let Some(b) = (self.recv.cursor..self.recv.granted).find(|&b| peers[b] == src) else {
                return Err(SmiError::ProtocolViolation {
                    detail: format!("{:?} data from {src}, which holds no grant", self.op),
                });
            };
            self.recv.stash[b].push_back(frame);
        }
        Ok(())
    }

    /// Non-blocking bulk push: feed the next elements of this rank's
    /// blocks, as far as grants and transport capacity allow; the own block
    /// goes to the local buffer. `Ok(0)` means "try again later".
    pub fn try_push_slice(&mut self, values: &[T]) -> Result<usize, SmiError> {
        if self.send.peers.is_empty() {
            return Err(SmiError::ProtocolViolation {
                detail: format!("{:?} push on a non-root rank", self.op),
            });
        }
        let total = self.send_total();
        if values.len() as u64 > total - self.send.pushed {
            return Err(SmiError::CountExceeded { count: total });
        }
        let flushed = self.advance()?;
        if self.state == CollectiveState::Opening {
            // A member's one block waits for its grant.
            return Ok(0);
        }
        let size = T::DATATYPE.size_bytes();
        let mut consumed = 0usize;
        while consumed < values.len() {
            let b = (self.send.pushed / self.count) as usize;
            let block_left = (self.count - self.send.pushed % self.count) as usize;
            let chunk = &values[consumed..consumed + block_left.min(values.len() - consumed)];
            let dst = self.send.peers[b];
            if dst == self.my_wire {
                self.local.extend(chunk.iter().copied());
                self.io.meter().add_bytes(chunk.len() * size);
                self.send.pushed += chunk.len() as u64;
                consumed += chunk.len();
                continue;
            }
            if !flushed || !self.send.granted[b] {
                break;
            }
            // A frame ends at the block's end at the latest, so every frame
            // belongs to one receiver's stream.
            let (take, frame) = self.send.framer.frame_slice(chunk, block_left, usize::MAX);
            self.io.meter().add_bytes(take * size);
            self.send.pushed += take as u64;
            consumed += take;
            if let Some(mut frame) = frame {
                frame.header_mut().dst = dst;
                self.io.stage_frame(frame);
                if self.io.stage_full() && !self.io.try_flush()? {
                    break;
                }
            }
        }
        if consumed > 0 {
            self.advance()?;
        }
        Ok(consumed)
    }

    /// Bulk push, blocking until the whole slice was accepted and handed
    /// to the transport.
    pub fn push_slice(&mut self, values: &[T], waiting_for: &'static str) -> Result<(), SmiError> {
        let mut off = 0usize;
        self.io.wait().on(waiting_for, || {
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

    /// Non-blocking bulk pop: drain whatever of this rank's blocks has
    /// arrived, in block order, into `out`; returns how many elements were
    /// written.
    pub fn try_pop_slice(&mut self, out: &mut [T]) -> Result<usize, SmiError> {
        if self.recv.peers.is_empty() {
            return Err(SmiError::ProtocolViolation {
                detail: format!("{:?} pop on a non-root rank", self.op),
            });
        }
        let total = self.recv_total();
        if out.len() as u64 > total - self.recv.popped {
            return Err(SmiError::CountExceeded { count: total });
        }
        self.advance()?;
        let mut filled = 0usize;
        while filled < out.len() {
            let b = self.recv.cursor;
            let block_left = (self.count - self.recv.popped % self.count) as usize;
            let end = filled + block_left.min(out.len() - filled);
            let dst = &mut out[filled..end];
            let n = if self.recv.own == Some(b) {
                let n = dst.len().min(self.local.len());
                for (slot, v) in dst.iter_mut().zip(self.local.drain(..n)) {
                    *slot = v;
                }
                n
            } else {
                if self.recv.deframer.is_empty() {
                    if self.recv.stash[b].is_empty() {
                        self.drain()?;
                    }
                    let Some(frame) = self.recv.stash[b].pop_front() else {
                        break;
                    };
                    refill(&mut self.recv.deframer, frame, self.op, self.io.meter())?;
                }
                self.recv.deframer.pop_slice(dst)
            };
            if n == 0 {
                break;
            }
            self.io.meter().add_bytes(n * T::DATATYPE.size_bytes());
            filled += n;
            self.recv.popped += n as u64;
            if n == block_left {
                if !self.recv.deframer.is_empty() {
                    return Err(SmiError::ProtocolViolation {
                        detail: format!("{:?} frame straddles a block", self.op),
                    });
                }
                self.recv.cursor += 1;
            }
        }
        if filled > 0 {
            // Grant the blocks the cursor moved up to.
            self.advance()?;
        }
        Ok(filled)
    }

    /// Bulk pop, blocking until `out` is filled. The own block must already
    /// have been pushed when the cursor reaches it (nothing else can supply
    /// it), so a shortfall there is a protocol violation, not a stall.
    pub fn pop_slice(&mut self, out: &mut [T], waiting_for: &'static str) -> Result<(), SmiError> {
        let mut off = 0usize;
        self.io.wait().on(waiting_for, || {
            let moved = self.try_pop_slice(&mut out[off..])?;
            off += moved;
            if off == out.len() {
                return Ok(BlockingStep::Ready(()));
            }
            if moved > 0 {
                return Ok(BlockingStep::Progress);
            }
            if self.recv.own == Some(self.recv.cursor) && self.local.is_empty() {
                return Err(SmiError::ProtocolViolation {
                    detail: format!("{:?} pop before the root pushed its own block", self.op),
                });
            }
            Ok(BlockingStep::Pending)
        })
    }

    /// Spin until the open-side handshake traffic left (thread plane).
    pub fn wait_open(&mut self, waiting_for: &'static str) -> Result<(), SmiError> {
        self.io.wait().on(waiting_for, || {
            self.advance()?;
            Ok(if self.state == CollectiveState::Opening {
                BlockingStep::Pending
            } else {
                BlockingStep::Ready(())
            })
        })
    }

    /// Advance without blocking and report the resulting state.
    pub fn poll(&mut self) -> Result<CollectiveState, SmiError> {
        self.advance()?;
        Ok(self.state)
    }

    /// The current state (no progress attempted).
    pub fn state(&self) -> CollectiveState {
        self.state
    }
}
