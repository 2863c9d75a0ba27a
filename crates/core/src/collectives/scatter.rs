//! The scatter channel (`SMI_Open_scatter_channel` analogue).
//!
//! The root pushes `count × N` elements in communicator order; every member
//! (including the root) pops its `count`-element slice. Non-root slices are
//! only streamed once readiness arrived (§3.3); readiness is absorbed
//! non-blockingly, so the core never parks a thread.
//!
//! Both [`crate::CollectiveScheme`]s run through one code path driven by the
//! shape's deterministic block `schedule`: `Linear`
//! is the star tree (the root streams every member's block directly, gated
//! on that member's ready-`Sync` — the paper's shape, wire-identical to the
//! pre-tree protocol). Under `Tree`, a member announces readiness to its
//! *parent* only after its whole subtree announced, and interior nodes
//! split the arriving block stream per their schedule: their own block is
//! delivered locally, every other block is re-addressed to the child whose
//! subtree owns it — frames never straddle block boundaries (the root
//! flushes its framer at every block), so forwarding is plain counting.
//!
//! The root wraps whole-packet spans of each child's blocks into refcounted
//! [`smi_wire::PacketRun`]s the way bcast's fan-out does: one copy into the run
//! buffer, then `Arc` handles all the way down the tree (interior nodes
//! re-stamp the route on a cloned header, never the payload).

use std::collections::VecDeque;
use std::marker::PhantomData;

use smi_wire::{Deframer, Frame, Framer, NetworkPacket, PacketOp, SmiType};

use crate::collectives::topology::{Run, RunTarget, TreeShape, WireEdges};
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
    num_members: usize,
    is_root: bool,
    my_wire: u8,
    port_wire: u8,
    /// Wire rank of the tree parent (None at the root).
    parent: Option<u8>,
    /// Wire ranks of the direct downstream targets.
    children: Vec<u8>,
    /// Readiness per child (root: gates streaming; interior: gates the own
    /// announcement).
    child_ready: Vec<bool>,
    ready: usize,
    sync_staged: bool,
    /// This node's block schedule: the root's consumption order, or an
    /// interior node's arrival order.
    schedule: Vec<Run>,
    /// Total elements this node routes (its whole subtree; fixed at open).
    subtree_elems: u64,
    run_idx: usize,
    /// Elements consumed of the current run.
    run_off: u64,
    /// Root: pushed elements so far (0..count*N).
    pushed: u64,
    /// Interior: elements routed (delivered locally or forwarded) so far.
    routed: u64,
    /// Popped elements so far (0..count).
    popped: u64,
    /// Root's own slice, buffered locally.
    local: VecDeque<T>,
    /// Interior: own-block frames pending local deframing.
    inbox: VecDeque<Frame>,
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
        root: usize,
        params: &RuntimeParams,
    ) -> Result<Self, SmiError> {
        let io = PortIo::open(
            table,
            port,
            smi_codegen::OpKind::Scatter,
            T::DATATYPE,
            params,
        )?;
        let shape = TreeShape::new(params.collective_scheme, comm.size(), root, comm.rank());
        let WireEdges { parent, children } = shape.resolve_world(comm)?;
        let is_root = comm.rank() == root;
        let port_wire = smi_wire::header::port_to_wire(port)?;
        let my_wire = comm.wire_rank(comm.rank())?;
        let n_children = children.len();
        let mut chan = ScatterChannel {
            count,
            num_members: comm.size(),
            is_root,
            my_wire,
            port_wire,
            parent,
            children,
            child_ready: vec![false; n_children],
            ready: 0,
            sync_staged: false,
            schedule: shape.schedule(),
            subtree_elems: shape.span() as u64 * count,
            run_idx: 0,
            run_off: 0,
            pushed: 0,
            routed: 0,
            popped: 0,
            local: VecDeque::new(),
            inbox: VecDeque::new(),
            state: CollectiveState::Opening,
            framer: Framer::new(T::DATATYPE, my_wire, 0, port_wire, PacketOp::Scatter),
            deframer: Deframer::new(T::DATATYPE),
            io,
            _elem: PhantomData,
        };
        if count == 0 {
            chan.state = CollectiveState::Done;
        } else if chan.is_root {
            // The root streams per-subtree once that child's Sync arrives;
            // its own open side has nothing to wait for.
            chan.state = CollectiveState::Streaming;
        }
        // A non-root leaf's announcement is staged by this first advance
        // (an interior node's only once its children announced).
        chan.advance()?;
        Ok(chan)
    }

    #[inline]
    fn is_interior(&self) -> bool {
        self.parent.is_some() && !self.children.is_empty()
    }

    /// One non-blocking step: flush staged packets, absorb ready syncs,
    /// run the interior forwarding duty, update the state.
    fn advance(&mut self) -> Result<bool, SmiError> {
        let mut flushed = self.io.try_flush()?;
        if self.is_root {
            self.absorb_syncs()?;
        }
        match self.state {
            CollectiveState::Opening => {
                // Non-root: collect the children's announcements (tree
                // interior), then announce the whole subtree ready.
                while self.ready < self.children.len() {
                    match self.io.try_recv_data()? {
                        Some(pkt) => self.mark_ready(pkt)?,
                        None => break,
                    }
                }
                if self.ready == self.children.len() {
                    if !self.sync_staged {
                        let parent = self.parent.expect("non-root has a parent");
                        let sync = NetworkPacket::control(
                            self.my_wire,
                            parent,
                            self.port_wire,
                            PacketOp::Sync,
                            0,
                        );
                        self.io.stage(sync);
                        self.sync_staged = true;
                        flushed = self.io.try_flush()?;
                    }
                    if flushed {
                        self.state = CollectiveState::Streaming;
                    }
                }
            }
            CollectiveState::Streaming => {
                if self.is_interior() {
                    self.pump_forward()?;
                    flushed = self.io.try_flush()?;
                }
                let total = self.count * self.num_members as u64;
                let sent_all = if self.is_root {
                    self.pushed == total
                } else if self.is_interior() {
                    self.routed == self.subtree_elems
                } else {
                    true
                };
                if sent_all && self.popped == self.count && flushed {
                    self.state = CollectiveState::Done;
                }
            }
            CollectiveState::Done => {}
        }
        Ok(flushed)
    }

    /// Record a ready announcement from a child. A second one from the
    /// same child is for the port's next message (the child finished this
    /// one and opened the next at once), so it waits for that open.
    fn mark_ready(&mut self, sync: NetworkPacket) -> Result<(), SmiError> {
        expect_op(&sync.header, PacketOp::Sync)?;
        let src = sync.header.src;
        let idx = self
            .children
            .iter()
            .position(|&w| w == src)
            .ok_or_else(|| SmiError::ProtocolViolation {
                detail: format!("scatter sync from unexpected world rank {src}"),
            })?;
        if self.child_ready[idx] {
            self.io.carry(sync);
        } else {
            self.child_ready[idx] = true;
            self.ready += 1;
        }
        Ok(())
    }

    /// Root: record any ready announcements already delivered.
    fn absorb_syncs(&mut self) -> Result<(), SmiError> {
        while let Some(pkt) = self.io.try_recv_data()? {
            self.mark_ready(pkt)?;
        }
        Ok(())
    }

    /// Interior forwarding duty: split the arriving block stream per the
    /// schedule — own blocks to the local inbox, every other block
    /// re-addressed to the child whose subtree owns it. Gated on staging
    /// capacity so congestion backpressures the parent. Frames move whole:
    /// an inline packet is re-stamped in place, a run clones only its
    /// header (the payload stays one shared `Arc` down the whole tree).
    fn pump_forward(&mut self) -> Result<(), SmiError> {
        while self.run_idx < self.schedule.len() {
            if self.io.stage_full() && !self.io.try_flush()? {
                break;
            }
            let run = self.schedule[self.run_idx];
            let mut frame = match self.io.try_recv_data_frame()? {
                // A child that already has its block announces the next
                // message.
                Some(Frame::Pkt(p)) if p.header.op == PacketOp::Sync => {
                    self.mark_ready(p)?;
                    continue;
                }
                Some(frame) => frame,
                None => break,
            };
            expect_op(frame.header(), PacketOp::Scatter)?;
            let k = frame.elems() as u64;
            if self.run_off + k > run.elems(self.count) {
                return Err(SmiError::ProtocolViolation {
                    detail: "scatter frame straddles a block-schedule run".into(),
                });
            }
            match run.target {
                RunTarget::Own => self.inbox.push_back(frame),
                RunTarget::Child(c) => {
                    let h = frame.header_mut();
                    h.src = self.my_wire;
                    h.dst = self.children[c];
                    self.io.stage_frame(frame);
                }
            }
            self.run_off += k;
            self.routed += k;
            if self.run_off == run.elems(self.count) {
                self.run_idx += 1;
                self.run_off = 0;
            }
        }
        Ok(())
    }

    /// Non-blocking bulk push (root only): feed the next elements of the
    /// `count × N` source stream. Consumes as many elements as transport
    /// capacity and downstream readiness currently allow; `Ok(0)` means
    /// "try again later".
    pub fn try_push_slice(&mut self, values: &[T]) -> Result<usize, SmiError> {
        if !self.is_root {
            return Err(SmiError::ProtocolViolation {
                detail: "scatter push on a non-root rank".into(),
            });
        }
        let total = self.count * self.num_members as u64;
        if values.len() as u64 > total - self.pushed {
            return Err(SmiError::CountExceeded { count: total });
        }
        if !self.advance()? || values.is_empty() {
            return Ok(0);
        }
        let mut consumed = 0usize;
        while consumed < values.len() {
            let run = self.schedule[self.run_idx];
            match run.target {
                RunTarget::Own => {
                    // Own slice: buffered locally, no handshake.
                    let avail = ((run.elems(self.count) - self.run_off) as usize)
                        .min(values.len() - consumed);
                    self.local
                        .extend(values[consumed..consumed + avail].iter().copied());
                    self.pushed += avail as u64;
                    self.run_off += avail as u64;
                    consumed += avail;
                }
                RunTarget::Child(c) => {
                    if !self.child_ready[c] {
                        self.absorb_syncs()?;
                        if !self.child_ready[c] {
                            break;
                        }
                    }
                    // Frame within the current member block so a packet
                    // never straddles block boundaries (a run may take the
                    // whole block).
                    let block_left = (self.count - self.pushed % self.count) as usize;
                    let avail = (values.len() - consumed)
                        .min(block_left)
                        .min((run.elems(self.count) - self.run_off) as usize);
                    let (take, frame) = self.framer.frame_slice(
                        &values[consumed..consumed + avail],
                        block_left,
                        usize::MAX,
                    );
                    self.io.meter().add_bytes(take * T::DATATYPE.size_bytes());
                    self.pushed += take as u64;
                    self.run_off += take as u64;
                    consumed += take;
                    if let Some(mut frame) = frame {
                        frame.header_mut().dst = self.children[c];
                        self.io.stage_frame(frame);
                        if self.io.stage_full() && !self.io.try_flush()? {
                            if self.run_off == run.elems(self.count) {
                                self.run_idx += 1;
                                self.run_off = 0;
                            }
                            break;
                        }
                    }
                }
            }
            if self.run_off == run.elems(self.count) {
                self.run_idx += 1;
                self.run_off = 0;
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
            while filled < out.len() {
                match self.local.pop_front() {
                    Some(v) => {
                        out[filled] = v;
                        filled += 1;
                        self.popped += 1;
                    }
                    None => break,
                }
            }
        } else {
            while filled < out.len() {
                if self.deframer.is_empty() {
                    // Interior: the forwarding pump queued the frame.
                    let next = if self.is_interior() {
                        self.inbox.pop_front()
                    } else {
                        self.io.try_recv_data_frame()?
                    };
                    let Some(frame) = next else {
                        break;
                    };
                    refill(
                        &mut self.deframer,
                        frame,
                        PacketOp::Scatter,
                        self.io.meter(),
                    )?;
                }
                let n = self.deframer.pop_slice(&mut out[filled..]);
                self.io.meter().add_bytes(n * T::DATATYPE.size_bytes());
                filled += n;
                self.popped += n as u64;
            }
        }
        if self.popped == self.count {
            self.advance()?;
        }
        Ok(filled)
    }

    /// Bulk pop, blocking until `out` is filled. At the root the slice must
    /// already have been pushed (the root's own elements cannot arrive from
    /// anywhere else), so a shortfall is a protocol violation, not a stall.
    /// An interior node that pops its whole slice additionally drives the
    /// channel to `Done` — its forwarding duty may outlast local delivery,
    /// and returning earlier would strand the subtree when the caller drops
    /// the channel.
    pub fn pop_slice(&mut self, out: &mut [T]) -> Result<(), SmiError> {
        if out.len() as u64 > self.count - self.popped {
            return Err(SmiError::CountExceeded { count: self.count });
        }
        let is_root = self.is_root;
        let mut off = 0usize;
        self.io.wait().on("scatter data", || {
            let routed_before = self.routed;
            let moved = self.try_pop_slice(&mut out[off..])?;
            off += moved;
            if off == out.len() {
                let drains = self.is_interior() && self.popped == self.count;
                if !drains || self.poll()? == CollectiveState::Done {
                    return Ok(BlockingStep::Ready(()));
                }
            } else if is_root {
                // Nothing can refill the local buffer but this caller.
                return Err(SmiError::ProtocolViolation {
                    detail: "scatter pop before the root pushed its own slice".into(),
                });
            }
            Ok(if moved > 0 || self.routed > routed_before {
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
