//! The gather channel (`SMI_Open_gather_channel` analogue).
//!
//! Every member pushes `count` elements; the root pops `count × N` elements
//! in communicator order. "The root rank must communicate to each source
//! rank when it is ready to receive the given sequence of data" (§3.3).
//!
//! Under [`CollectiveScheme::Linear`] the root grants members serially with
//! `Sync` packets, so contributions never interleave and the root needs no
//! reorder buffer — a leaf's `Opening` state lasts until its grant arrived
//! (absorbed non-blockingly, so a cooperative task waiting for its turn
//! never parks a worker). This is the paper's shape, kept wire-identical.
//!
//! Under [`CollectiveScheme::Tree`] contributions flow up a binomial tree:
//! every node merges its own block with its children's subtree streams in
//! the deterministic `schedule` order and forwards
//! the merged stream to its parent. Flow control uses element-granular
//! `Credit` grants per tree edge — a parent grants a child exactly the
//! elements of the child's schedule run, so grants are tail-exact by
//! construction (the gather analogue of the reduce tail-window clamp) and
//! arrive on the credit delivery path, where they can never be
//! head-of-line blocked by in-flight data. Grants are pipelined: a parent
//! grants up to [`GRANT_AHEAD`] child runs ahead of its merge cursor, so the next child's data is already in flight when
//! the cursor reaches it; early packets from a granted-ahead child are
//! parked in a per-child stash (bounded by the granted window) until their
//! run comes up. All nodes start in `Streaming` (grants gate data, not the
//! open), and packets never straddle member-block boundaries, so interior
//! forwarding is plain counting.

use std::collections::VecDeque;
use std::marker::PhantomData;

use smi_wire::{Deframer, Framer, NetworkPacket, PacketOp, SmiType};

use crate::collectives::topology::{CollectiveScheme, Run, RunTarget, TreeShape, WireEdges};
use crate::collectives::{CollectivePoll, CollectiveState};
use crate::comm::Communicator;
use crate::endpoint::{expect_op, refill, BlockingStep, EndpointTableHandle, PortIo};
use crate::params::RuntimeParams;
use crate::SmiError;

/// How many child runs ahead of the in-order merge schedule the tree-gather
/// combiner grants credits: one extra child's window stays in flight to
/// hide the grant round trip (1 would be strictly serial per-child windows).
/// Early packets from granted-ahead children are parked until the schedule
/// reaches them.
const GRANT_AHEAD: usize = 2;

/// A gather channel, as a poll-mode core with bulk `push_slice` /
/// `pop_slice` operations and non-blocking `try_*` forms.
pub struct GatherChannel<T: SmiType> {
    /// Elements per member.
    count: u64,
    num_members: usize,
    my_wire: u8,
    port_wire: u8,
    root_wire: u8,
    is_root: bool,
    scheme: CollectiveScheme,
    /// Members in communicator order (wire ranks; linear root grants).
    members: Vec<u8>,
    /// Linear leaf: whether the root's grant arrived.
    granted: bool,
    /// Linear root: communicator index currently granted (== popped / count).
    grant_sent_for: Option<usize>,
    /// Tree: wire rank of the parent (None at the root).
    parent: Option<u8>,
    /// Tree: wire ranks of the children.
    children: Vec<u8>,
    /// Tree: this node's merge schedule (subtree blocks in comm order).
    schedule: Vec<Run>,
    /// Tree: total elements of this node's subtree stream (fixed at open).
    subtree_elems: u64,
    run_idx: usize,
    run_off: u64,
    /// Tree: schedule index below which every `Child` run's grant is staged
    /// (the pipelined-grant cursor; always `>= run_idx` once pumping).
    granted_upto: usize,
    /// Tree: per-child parking lot for packets that arrived ahead of the
    /// merge cursor from a granted-ahead child. Bounded by the granted
    /// window ([`GRANT_AHEAD`] runs of `count` elements each).
    stash: Vec<VecDeque<NetworkPacket>>,
    /// Tree non-root: elements this node may still emit upward.
    upstream_credits: u64,
    /// Tree non-root: elements emitted upward so far.
    emitted: u64,
    /// Tree non-root: a child packet received ahead of the upstream credit
    /// window, parked until the parent's next grant arrives.
    pending_fwd: Option<NetworkPacket>,
    pushed: u64,
    popped: u64,
    /// This member's own contribution, buffered locally.
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
        let scheme = params.collective_scheme;
        let root_wire = comm.wire_rank(root)?;
        let io = PortIo::open(
            table,
            port,
            smi_codegen::OpKind::Gather,
            T::DATATYPE,
            params,
        )?;
        let shape = TreeShape::new(scheme, comm.size(), root, comm.rank());
        let WireEdges { parent, children } = shape.resolve_world(comm)?;
        let is_root = comm.rank() == root;
        let port_wire = smi_wire::header::port_to_wire(port)?;
        let my_wire = comm.wire_rank(comm.rank())?;
        let members = (0..comm.size()).map(|m| comm.wire_rank(m));
        let stash = vec![VecDeque::new(); children.len()];
        Ok(GatherChannel {
            count,
            num_members: comm.size(),
            my_wire,
            port_wire,
            root_wire,
            is_root,
            scheme,
            members: members.collect::<Result<_, _>>()?,
            granted: false,
            grant_sent_for: None,
            parent,
            children,
            schedule: shape.schedule(),
            subtree_elems: shape.span() as u64 * count,
            run_idx: 0,
            run_off: 0,
            granted_upto: 0,
            stash,
            upstream_credits: 0,
            emitted: 0,
            pending_fwd: None,
            pushed: 0,
            popped: 0,
            local: VecDeque::new(),
            state: if count == 0 {
                CollectiveState::Done
            } else if is_root || scheme == CollectiveScheme::Tree {
                // The root opens ready. Under the tree scheme every node
                // does: credits gate the data, not the open.
                CollectiveState::Streaming
            } else {
                CollectiveState::Opening
            },
            framer: Framer::new(
                T::DATATYPE,
                my_wire,
                parent.unwrap_or(root_wire),
                port_wire,
                PacketOp::Gather,
            ),
            deframer: Deframer::new(T::DATATYPE),
            io,
            _elem: PhantomData,
        })
    }

    #[inline]
    fn tree(&self) -> bool {
        self.scheme == CollectiveScheme::Tree
    }

    /// One non-blocking step: flush staged packets, absorb a pending grant
    /// at a linear leaf, run the tree merge duty, update the state.
    fn advance(&mut self) -> Result<bool, SmiError> {
        let mut flushed = self.io.try_flush()?;
        if !self.tree() && !self.is_root && !self.granted {
            if let Some(pkt) = self.io.try_recv_data()? {
                expect_op(&pkt.header, PacketOp::Sync)?;
                self.granted = true;
            }
        }
        match self.state {
            CollectiveState::Opening => {
                if self.granted {
                    self.state = CollectiveState::Streaming;
                }
            }
            CollectiveState::Streaming => {
                if self.tree() && !self.is_root {
                    self.pump_up()?;
                    flushed = self.io.try_flush()?;
                }
                let total = self.count * self.num_members as u64;
                let done = if self.is_root {
                    self.pushed == self.count && self.popped == total
                } else if self.tree() {
                    self.emitted == self.subtree_elems
                } else {
                    self.pushed == self.count
                };
                if done && flushed && self.framer.pending() == 0 {
                    self.state = CollectiveState::Done;
                }
            }
            CollectiveState::Done => {}
        }
        Ok(flushed)
    }

    /// Absorb per-edge credit grants (tree non-root).
    fn absorb_credits(&mut self) -> Result<(), SmiError> {
        while let Some(pkt) = self.io.try_recv_credit()? {
            expect_op(&pkt.header, PacketOp::Credit)?;
            self.upstream_credits += pkt.control_arg() as u64;
            if self.emitted + self.upstream_credits > self.subtree_elems {
                return Err(SmiError::ProtocolViolation {
                    detail: "gather credit over-grant past the subtree stream".into(),
                });
            }
        }
        Ok(())
    }

    /// Stage credit grants for upcoming `Child` runs, up to [`GRANT_AHEAD`]
    /// runs past the merge cursor (pipelined multi-window grants): the next
    /// child's run is in flight while the current one is still merging.
    /// Each run is granted exactly once, element-exact. The wire carries a
    /// 32-bit credit argument, so a run beyond `u32::MAX` elements is
    /// granted as multiple packets instead of silently truncating.
    fn grant_runs_ahead(&mut self) -> Result<(), SmiError> {
        let horizon = (self.run_idx + GRANT_AHEAD).min(self.schedule.len());
        let mut staged = false;
        while self.granted_upto < horizon {
            let run = self.schedule[self.granted_upto];
            // `Own` runs need no grant but still advance the cursor.
            if let RunTarget::Child(c) = run.target {
                let mut left = run.elems(self.count);
                while left > 0 {
                    let chunk = left.min(u32::MAX as u64);
                    let pkt = NetworkPacket::control(
                        self.my_wire,
                        self.children[c],
                        self.port_wire,
                        PacketOp::Credit,
                        chunk as u32,
                    );
                    self.io.stage(pkt);
                    left -= chunk;
                }
                staged = true;
            }
            self.granted_upto += 1;
        }
        if staged {
            self.io.try_flush()?;
        }
        Ok(())
    }

    /// Drain every delivered data packet into its child's stash. Granted-
    /// ahead children send while this node is still merging an earlier run
    /// (possibly gated on upstream credits), so the delivery FIFO must
    /// always be emptied — a full FIFO would block the rank's CK kernel
    /// and, with it, unrelated traffic forwarded through this rank. Stash
    /// growth is bounded by the granted windows ([`GRANT_AHEAD`] runs per
    /// child). Data from a non-child source is a protocol violation.
    fn drain_into_stash(&mut self) -> Result<(), SmiError> {
        while let Some(pkt) = self.io.try_recv_data()? {
            expect_op(&pkt.header, PacketOp::Gather)?;
            let src = pkt.header.src;
            match self.children.iter().position(|&w| w == src) {
                Some(c) => self.stash[c].push_back(pkt),
                None => {
                    return Err(SmiError::ProtocolViolation {
                        detail: format!("gather data from {src}, not a child of this node"),
                    })
                }
            }
        }
        Ok(())
    }

    /// Pull the next data packet for child `c` (communicator-tree index),
    /// via that child's stash. `Ok(None)` means nothing for `c` arrived yet.
    fn recv_child_packet(&mut self, c: usize) -> Result<Option<NetworkPacket>, SmiError> {
        self.drain_into_stash()?;
        Ok(self.stash[c].pop_front())
    }

    /// Tree non-root merge duty: emit this node's subtree stream to its
    /// parent in schedule order — own elements framed from the local
    /// buffer, child runs granted on demand and forwarded at packet
    /// granularity — bounded by the upstream credit window.
    fn pump_up(&mut self) -> Result<(), SmiError> {
        self.absorb_credits()?;
        self.drain_into_stash()?;
        while self.run_idx < self.schedule.len() {
            if self.io.stage_full() && !self.io.try_flush()? {
                break;
            }
            self.grant_runs_ahead()?;
            let run = self.schedule[self.run_idx];
            let run_elems = run.elems(self.count);
            match run.target {
                RunTarget::Own => {
                    if self.upstream_credits == 0 || self.local.is_empty() {
                        self.absorb_credits()?;
                        if self.upstream_credits == 0 || self.local.is_empty() {
                            break;
                        }
                    }
                    let mut moved = false;
                    while self.run_off < run_elems && self.upstream_credits > 0 {
                        if self.io.stage_full() && !self.io.try_flush()? {
                            break;
                        }
                        let v = match self.local.pop_front() {
                            Some(v) => v,
                            None => break,
                        };
                        let pkt = self.framer.push(&v);
                        self.io.meter().add_bytes(T::DATATYPE.size_bytes());
                        self.run_off += 1;
                        self.emitted += 1;
                        self.upstream_credits -= 1;
                        moved = true;
                        // Flush at member-block boundaries so packets never
                        // straddle blocks anywhere up the tree.
                        let maybe = if self.emitted.is_multiple_of(self.count)
                            || self.emitted == self.subtree_elems
                        {
                            pkt.or_else(|| self.framer.flush())
                        } else {
                            pkt
                        };
                        if let Some(p) = maybe {
                            self.io.stage(p);
                        }
                    }
                    if !moved {
                        break;
                    }
                }
                RunTarget::Child(c) => {
                    let pkt = match self.pending_fwd.take() {
                        Some(pkt) => pkt,
                        None => match self.recv_child_packet(c)? {
                            Some(pkt) => pkt,
                            None => break,
                        },
                    };
                    let k = pkt.header.count as u64;
                    if self.run_off + k > run_elems {
                        return Err(SmiError::ProtocolViolation {
                            detail: "gather packet straddles a block-schedule run".into(),
                        });
                    }
                    if self.upstream_credits < k {
                        self.absorb_credits()?;
                    }
                    if self.upstream_credits < k {
                        // The child was granted its run independent of our
                        // own upstream window (prefetch); park the packet
                        // until the parent's next grant arrives.
                        self.pending_fwd = Some(pkt);
                        break;
                    }
                    let mut copy = pkt;
                    copy.header.src = self.my_wire;
                    copy.header.dst = self.parent.expect("non-root has a parent");
                    self.io.stage(copy);
                    self.run_off += k;
                    self.emitted += k;
                    self.upstream_credits -= k;
                }
            }
            if self.run_off == run_elems {
                self.run_idx += 1;
                self.run_off = 0;
            }
        }
        Ok(())
    }

    /// Non-blocking bulk push of this member's contribution.
    ///
    /// Under the linear scheme a leaf consumes as many elements as the
    /// grant and transport capacity currently allow. Under the tree scheme
    /// (and at the root under either scheme) the contribution is buffered
    /// locally — bounded by `count` — and drained by the merge duty as
    /// grants arrive.
    pub fn try_push_slice(&mut self, values: &[T]) -> Result<usize, SmiError> {
        if values.len() as u64 > self.count - self.pushed {
            return Err(SmiError::CountExceeded { count: self.count });
        }
        if self.is_root || self.tree() {
            // Own contribution: buffered locally, merged on schedule.
            self.local.extend(values.iter().copied());
            self.io
                .meter()
                .add_bytes(values.len() * T::DATATYPE.size_bytes());
            self.pushed += values.len() as u64;
            self.advance()?;
            return Ok(values.len());
        }
        if !self.advance()? {
            return Ok(0);
        }
        // Data may only move after the root's serialized go-ahead.
        if !self.granted {
            return Ok(0);
        }
        let mut consumed = 0usize;
        while consumed < values.len() {
            let (take, pkt) = self.framer.push_slice(&values[consumed..]);
            self.io.meter().add_bytes(take * T::DATATYPE.size_bytes());
            consumed += take;
            self.pushed += take as u64;
            let maybe = if self.pushed == self.count {
                pkt.or_else(|| self.framer.flush())
            } else {
                pkt
            };
            if let Some(p) = maybe {
                self.io.stage(p);
                if self.io.stage_full() && !self.io.try_flush()? {
                    break;
                }
            }
        }
        self.advance()?;
        Ok(consumed)
    }

    /// Bulk push, blocking until the whole contribution slice was accepted.
    /// A call that completes this member's whole contribution additionally
    /// drives a tree-scheme channel to `Done` — a tree node keeps merging
    /// and forwarding its children's streams after its own contribution is
    /// buffered, and returning earlier would strand the subtree when the
    /// caller drops the channel.
    pub fn push_slice(&mut self, values: &[T]) -> Result<(), SmiError> {
        if values.len() as u64 > self.count - self.pushed {
            return Err(SmiError::CountExceeded { count: self.count });
        }
        let mut off = 0usize;
        self.io.wait().on("gather grant", || {
            let emitted_before = self.emitted;
            let moved = self.try_push_slice(&values[off..])?;
            off += moved;
            if off == values.len() && self.io.try_flush()? {
                let drains = self.tree() && !self.is_root && self.pushed == self.count;
                if !drains || self.poll()? == CollectiveState::Done {
                    return Ok(BlockingStep::Ready(()));
                }
            }
            Ok(if moved > 0 || self.emitted > emitted_before {
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
        let total = self.count * self.num_members as u64;
        if out.len() as u64 > total - self.popped {
            return Err(SmiError::CountExceeded { count: total });
        }
        self.advance()?;
        if self.tree() {
            self.try_pop_slice_tree(out)
        } else {
            self.try_pop_slice_linear(out)
        }
    }

    /// Linear root: serialized `Sync` grants, one member at a time.
    fn try_pop_slice_linear(&mut self, out: &mut [T]) -> Result<usize, SmiError> {
        let total = self.count * self.num_members as u64;
        let mut filled = 0usize;
        while filled < out.len() {
            let src_idx = (self.popped / self.count) as usize;
            let slice_left = (self.count - self.popped % self.count) as usize;
            let src_world = self.members[src_idx];
            if src_world == self.root_wire {
                // Own contribution, from the local buffer.
                let take = slice_left.min(out.len() - filled).min(self.local.len());
                if take == 0 {
                    break;
                }
                for slot in out[filled..filled + take].iter_mut() {
                    *slot = self.local.pop_front().expect("sized above");
                }
                self.io.meter().add_bytes(take * T::DATATYPE.size_bytes());
                filled += take;
                self.popped += take as u64;
                continue;
            }
            // Serialized grant: the first element of a new slice grants its
            // source (the packet is staged; a full FIFO retries on poll).
            if self.grant_sent_for != Some(src_idx) {
                let grant = NetworkPacket::control(
                    self.my_wire,
                    src_world,
                    self.port_wire,
                    PacketOp::Sync,
                    0,
                );
                self.io.stage(grant);
                self.grant_sent_for = Some(src_idx);
                self.io.try_flush()?;
            }
            if self.deframer.is_empty() {
                let Some(pkt) = self.io.try_recv_data()? else {
                    break;
                };
                if pkt.header.src != src_world {
                    return Err(SmiError::ProtocolViolation {
                        detail: format!(
                            "gather order violated: data from {} while collecting {}",
                            pkt.header.src, src_world
                        ),
                    });
                }
                refill(&mut self.deframer, pkt, PacketOp::Gather, self.io.meter())?;
            }
            let cap = slice_left.min(out.len() - filled);
            let n = self.deframer.pop_slice(&mut out[filled..filled + cap]);
            self.io.meter().add_bytes(n * T::DATATYPE.size_bytes());
            filled += n;
            self.popped += n as u64;
        }
        if self.popped == total {
            self.advance()?;
        }
        Ok(filled)
    }

    /// Tree root: walk the merge schedule, granting each child run with an
    /// element-exact `Credit` as it comes up.
    fn try_pop_slice_tree(&mut self, out: &mut [T]) -> Result<usize, SmiError> {
        let total = self.count * self.num_members as u64;
        self.drain_into_stash()?;
        let mut filled = 0usize;
        while filled < out.len() && self.run_idx < self.schedule.len() {
            self.grant_runs_ahead()?;
            let run = self.schedule[self.run_idx];
            let run_elems = run.elems(self.count);
            match run.target {
                RunTarget::Own => {
                    let left = (run_elems - self.run_off) as usize;
                    let take = left.min(out.len() - filled).min(self.local.len());
                    if take == 0 {
                        break;
                    }
                    for slot in out[filled..filled + take].iter_mut() {
                        *slot = self.local.pop_front().expect("sized above");
                    }
                    self.io.meter().add_bytes(take * T::DATATYPE.size_bytes());
                    filled += take;
                    self.popped += take as u64;
                    self.run_off += take as u64;
                }
                RunTarget::Child(c) => {
                    if self.deframer.is_empty() {
                        let Some(pkt) = self.recv_child_packet(c)? else {
                            break;
                        };
                        refill(&mut self.deframer, pkt, PacketOp::Gather, self.io.meter())?;
                    }
                    let cap = ((run_elems - self.run_off) as usize).min(out.len() - filled);
                    let n = self.deframer.pop_slice(&mut out[filled..filled + cap]);
                    if n == 0 {
                        break;
                    }
                    self.io.meter().add_bytes(n * T::DATATYPE.size_bytes());
                    filled += n;
                    self.popped += n as u64;
                    self.run_off += n as u64;
                }
            }
            if self.run_off == run_elems {
                self.run_idx += 1;
                self.run_off = 0;
            }
        }
        if self.popped == total {
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
            let own_up = if self.tree() {
                self.run_idx < self.schedule.len()
                    && self.schedule[self.run_idx].target == RunTarget::Own
            } else {
                let src_idx = (self.popped / self.count) as usize;
                self.members[src_idx] == self.root_wire
            };
            if own_up && self.local.is_empty() && self.pushed < self.count {
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
