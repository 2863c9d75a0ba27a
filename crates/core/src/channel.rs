//! Point-to-point transient channels: `SMI_Open_send_channel` /
//! `SMI_Open_recv_channel` with `SMI_Push` / `SMI_Pop`.
//!
//! Channels are opened with an element count, datatype (the Rust element
//! type), peer rank and port, and are implicitly closed once `count`
//! elements have moved (§3.1.1). `push`/`pop` are blocking, pipelined to one
//! element per call, and preserve order — the paper's semantics for
//! `SMI_Push`/`SMI_Pop`.
//!
//! Blocking here means spinning the poll core: every blocking call runs its
//! non-blocking twin (`try_push_slice`, `try_pop_slice`) in the one wait
//! loop blocking collectives use too (the runtime's `blocking_timeout` stall
//! bound and the fabric-health board); no call waits on a transport FIFO's
//! condvar. Both ends run on the port's `PortIo` handle
//! ([`crate::endpoint`]), the one collective channels run on too: it stages
//! packets onto the lanes into the CKSs, flushes them, receives the data
//! delivery, claims the credit grants the rank's CKRs counted, and returns
//! the endpoint when the channel drops. A channel keeps only its protocol
//! state — framer or deframer, count and credit.
//!
//! Two transmission protocols are provided (§3.3): **eager** (elements enter
//! the network as soon as buffer space allows; the sender stalls only on
//! backpressure — correct whenever the program does not rely on buffering)
//! and **credit-based** (the sender stays within a window granted by the
//! receiver, so a slow receiver cannot clog shared transport paths with
//! this channel's packets).
//!
//! Beyond the paper's per-element API, both ends expose **bulk** operations:
//! [`SendChannel::push_slice`] / [`RecvChannel::pop_slice`] move whole
//! slices, framing directly into packets and handing packets to the
//! transport in multi-packet bursts (amortizing queue synchronization), and
//! their non-blocking variants [`SendChannel::try_push_slice`] /
//! [`RecvChannel::try_pop_slice`] make the channel usable from cooperative
//! rank tasks (see [`crate::env::run_mpmd_tasks`]). Single-element `push`
//! still forwards each completed packet immediately, preserving the paper's
//! pipelining/liveness semantics that lockstep programs rely on.

use std::marker::PhantomData;

use smi_codegen::OpKind;
use smi_wire::{Deframer, Framer, NetworkPacket, PacketOp, SmiType};

use crate::collectives::zero_elem;
use crate::endpoint::{refill, BlockingStep, EndpointTableHandle, PortIo};
use crate::{RuntimeParams, SmiError};

/// Transmission protocol of a point-to-point channel (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Push into the network immediately ("elements can be pushed into the
    /// network without first performing a handshake with the receiver").
    Eager,
    /// Credit-based flow control with the given element window; both ends of
    /// the channel must use the same protocol and window.
    Credit {
        /// Window size in elements, at least 1 and at most `u32::MAX` (a
        /// grant's wire argument).
        window: u64,
    },
}

impl Protocol {
    /// The credit window, `None` for eager; a window outside
    /// `1..=u32::MAX` fails the open (a reduce's too).
    pub(crate) fn window(self) -> Result<Option<u64>, SmiError> {
        const MAX: u64 = u32::MAX as u64;
        match self {
            Protocol::Eager => Ok(None),
            Protocol::Credit {
                window: w @ 1..=MAX,
            } => Ok(Some(w)),
            Protocol::Credit { window } => Err(SmiError::ProtocolViolation {
                detail: format!("credit window {window} outside 1..=u32::MAX"),
            }),
        }
    }
}

/// The sending end of a transient channel (`SMI_Channel` from
/// `SMI_Open_send_channel`).
pub struct SendChannel<T: SmiType> {
    count: u64,
    sent: u64,
    framer: Framer,
    io: PortIo,
    protocol: Protocol,
    credits: u64,
    _elem: PhantomData<T>,
}

impl<T: SmiType> SendChannel<T> {
    pub(crate) fn open(
        table: EndpointTableHandle,
        my_wire_rank: u8,
        dst_wire_rank: u8,
        port: usize,
        count: u64,
        protocol: Protocol,
        params: &RuntimeParams,
    ) -> Result<Self, SmiError> {
        let credits = protocol.window()?.unwrap_or(u64::MAX);
        let io = PortIo::open(table, port, OpKind::Send, T::DATATYPE, params)?;
        let port_wire = smi_wire::header::port_to_wire(port)?;
        Ok(SendChannel {
            count,
            sent: 0,
            framer: Framer::new(
                T::DATATYPE,
                my_wire_rank,
                dst_wire_rank,
                port_wire,
                PacketOp::Send,
            ),
            io,
            protocol,
            credits,
            _elem: PhantomData,
        })
    }

    /// Hand the staged burst to the CKS without blocking: `Ok(true)` when
    /// nothing is left staged, `Ok(false)` (burst retained) when the FIFO is
    /// full.
    pub fn try_flush(&mut self) -> Result<bool, SmiError> {
        self.io.try_flush()
    }

    /// `SMI_Push`: append one element to the message. Blocks on backpressure
    /// (and, in credit mode, on an exhausted window). A completed packet —
    /// or the partial one at the message end or a closing credit window —
    /// reaches the transport before the call returns: lockstep programs rely
    /// on packet-granularity progress.
    pub fn push(&mut self, value: &T) -> Result<(), SmiError> {
        self.push_slice(std::slice::from_ref(value))
    }

    /// Bulk `SMI_Push`: append a whole slice, framing directly into packets
    /// and handing them to the transport in bursts of up to
    /// `burst_packets`. Blocks on backpressure and credit waits; when it
    /// returns, every element has been accepted by the transport layer.
    ///
    /// A slice larger than the channel's remaining count fails atomically
    /// up front: nothing is consumed.
    pub fn push_slice(&mut self, values: &[T]) -> Result<(), SmiError> {
        let mut off = 0usize;
        self.io.wait().on("push progress", || {
            let was_staged = !self.io.flushed();
            let moved = self.try_push_slice(&values[off..])?;
            off += moved;
            if off == values.len() && self.try_flush()? {
                return Ok(BlockingStep::Ready(()));
            }
            Ok(if moved > 0 || (was_staged && self.io.flushed()) {
                BlockingStep::Progress
            } else {
                BlockingStep::Pending
            })
        })
    }

    /// Non-blocking bulk push: appends as many elements as transport
    /// capacity (and, in credit mode, the granted window) currently allows
    /// and returns how many were consumed. `Ok(0)` means "try again later" —
    /// the channel never blocks. Elements already framed into a staged burst
    /// count as consumed; call [`SendChannel::try_flush`] (or just keep
    /// calling this) until [`SendChannel::fully_sent`] reports completion.
    pub fn try_push_slice(&mut self, values: &[T]) -> Result<usize, SmiError> {
        if values.len() as u64 > self.count - self.sent {
            return Err(SmiError::CountExceeded { count: self.count });
        }
        if !self.try_flush()? {
            return Ok(0);
        }
        let mut consumed = 0usize;
        while consumed < values.len() {
            if self.credits == 0 {
                // One grant per spent window (eager never spends it): the
                // window closes at every grant's end, so the packets a
                // message splits into do not depend on grant timing.
                self.credits = self.io.claim_grants(1)?.unwrap_or(0);
                if self.credits == 0 {
                    break;
                }
            }
            consumed += self.frame_chunk(&values[consumed..]);
            if (self.io.stage_full() || self.must_flush_now()) && !self.try_flush()? {
                break;
            }
        }
        if consumed == 0 && !values.is_empty() {
            // Making no headway at all while a peer process is dead: fail
            // fast instead of letting the caller poll forever.
            if let Some(e) = self.io.peer_error() {
                return Err(e);
            }
        }
        Ok(consumed)
    }

    /// Frame a chunk of `values` (bounded by the credit window) into at
    /// most one staged frame ([`Framer::frame_slice`]: a run of up to
    /// `max_burst` packets, or one packet). Returns elements consumed. A
    /// closing credit window flushes the partial packet too — otherwise a
    /// window smaller than a packet would strand elements in the framer
    /// while the receiver, whose grants follow arriving data, waits.
    fn frame_chunk(&mut self, values: &[T]) -> usize {
        let to_end = (self.count - self.sent) as usize;
        let avail = values.len().min(self.credits.min(to_end as u64) as usize);
        let (taken, frame) = self
            .framer
            .frame_slice(&values[..avail], to_end, self.io.max_burst());
        self.io.meter().add_bytes(taken * T::DATATYPE.size_bytes());
        if let Some(frame) = frame {
            self.io.stage_frame(frame);
        }
        self.sent += taken as u64;
        if self.credits != u64::MAX {
            self.credits -= taken as u64;
        }
        if self.credits == 0 {
            self.flush_framer();
        }
        taken
    }

    /// Stage the framer's partial packet, if any.
    fn flush_framer(&mut self) {
        if let Some(pkt) = self.framer.flush() {
            self.io.stage(pkt);
        }
    }

    /// Whether a partial packet must leave the framer now (message end or
    /// closed credit window).
    fn must_flush_now(&self) -> bool {
        self.sent == self.count || self.credits == 0
    }

    /// True once all `count` elements have been accepted by the transport
    /// (nothing staged, nothing pending in the framer).
    pub fn fully_sent(&self) -> bool {
        self.sent == self.count && self.io.flushed() && self.framer.pending() == 0
    }

    /// Elements pushed so far.
    pub fn pushed(&self) -> u64 {
        self.sent
    }

    /// The channel's element count.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl<T: SmiType> Drop for SendChannel<T> {
    fn drop(&mut self) {
        // A dropped incomplete channel flushes its partial packet (the
        // elements were semantically "pushed"); dropping the port handle
        // then offers it and frees the port.
        self.flush_framer();
        let completed = self.protocol != Protocol::Eager && self.sent == self.count;
        self.io.check_grants_claimed(completed);
    }
}

/// The receiving end of a transient channel (`SMI_Channel` from
/// `SMI_Open_recv_channel`).
pub struct RecvChannel<T: SmiType> {
    count: u64,
    received: u64,
    deframer: Deframer,
    io: PortIo,
    /// Credit grants: this rank, the sender's and the wire port.
    my_wire_rank: u8,
    src_wire_rank: u8,
    port_wire: u8,
    protocol: Protocol,
    /// Credit granted for this message so far, the implicit first window
    /// included (credit protocol). Grants are coalesced to one packet per
    /// half-window, checked at packet boundaries, and stop once they cover
    /// `count`: a grant the sender does not need would wait unclaimed in
    /// its port's grant FIFO and hand the port's next message credit its
    /// receiver never gave.
    granted: u64,
    _elem: PhantomData<T>,
}

impl<T: SmiType> RecvChannel<T> {
    pub(crate) fn open(
        table: EndpointTableHandle,
        my_wire_rank: u8,
        src_wire_rank: u8,
        port: usize,
        count: u64,
        protocol: Protocol,
        params: &RuntimeParams,
    ) -> Result<Self, SmiError> {
        let granted = protocol.window()?.unwrap_or(0);
        let io = PortIo::open(table, port, OpKind::Recv, T::DATATYPE, params)?;
        let port_wire = smi_wire::header::port_to_wire(port)?;
        Ok(RecvChannel {
            count,
            received: 0,
            deframer: Deframer::new(T::DATATYPE),
            io,
            my_wire_rank,
            src_wire_rank,
            port_wire,
            protocol,
            granted,
            _elem: PhantomData,
        })
    }

    /// The credit a grant sent now would carry: the elements consumed since
    /// the last grant, clamped to what the sender still needs for this
    /// message. Unless `closing`, grants wait for half a window. Eager
    /// channels grant nothing.
    fn grant_due(&self, closing: bool) -> u64 {
        let Protocol::Credit { window } = self.protocol else {
            return 0;
        };
        let consumed = self.received - (self.granted - window);
        if !closing && consumed < (window / 2).max(1) {
            return 0;
        }
        consumed.min(self.count.saturating_sub(self.granted))
    }

    /// Send the coalesced credit grant once it is due (whatever is owed if
    /// `closing`), without blocking. `Ok(true)` when no grant is owed; a
    /// grant a full lane refuses stays accumulated for the next call.
    fn maybe_grant(&mut self, closing: bool) -> Result<bool, SmiError> {
        let credit = self.grant_due(closing);
        if credit == 0 {
            return Ok(true);
        }
        let (me, src, port) = (self.my_wire_rank, self.src_wire_rank, self.port_wire);
        let grant = NetworkPacket::control(me, src, port, PacketOp::Credit, credit as u32);
        let sent = self.io.try_send(grant)?;
        if sent {
            self.granted += credit;
        }
        Ok(sent)
    }

    /// `SMI_Pop`: receive the next element, blocking until it arrives.
    pub fn pop(&mut self) -> Result<T, SmiError> {
        let mut v = [zero_elem::<T>()];
        self.pop_slice(&mut v)?;
        Ok(v[0])
    }

    /// Bulk `SMI_Pop`: fill the whole slice, blocking until every element
    /// arrived. Credit grants are coalesced per packet rather than per
    /// element, and a grant the slice's last element made due has left
    /// when the call returns.
    ///
    /// A slice larger than the channel's remaining count fails atomically
    /// up front: nothing is consumed.
    pub fn pop_slice(&mut self, out: &mut [T]) -> Result<(), SmiError> {
        let mut filled = 0usize;
        self.io.wait().on("pop progress", || {
            let moved = self.try_pop_slice(&mut out[filled..])?;
            filled += moved;
            if filled == out.len() && self.maybe_grant(false)? {
                return Ok(BlockingStep::Ready(()));
            }
            Ok(if moved > 0 {
                BlockingStep::Progress
            } else {
                BlockingStep::Pending
            })
        })
    }

    /// Non-blocking bulk pop: drains whatever has arrived into `out` and
    /// returns how many elements were written (possibly 0).
    pub fn try_pop_slice(&mut self, out: &mut [T]) -> Result<usize, SmiError> {
        if out.len() as u64 > self.count - self.received {
            return Err(SmiError::CountExceeded { count: self.count });
        }
        // Retry a grant deferred by a full FIFO even when no data is
        // buffered — with the sender's window exhausted, this grant is the
        // only thing that can make new data arrive.
        self.maybe_grant(false)?;
        let mut filled = 0usize;
        while filled < out.len() {
            if self.deframer.is_empty() {
                match self.io.try_recv_data_frame()? {
                    Some(frame) => {
                        refill(&mut self.deframer, frame, PacketOp::Send, self.io.meter())?
                    }
                    None => break,
                }
            }
            // The entry check bounds `out` by the channel count.
            let n = self.deframer.pop_slice(&mut out[filled..]);
            filled += n;
            self.received += n as u64;
            self.maybe_grant(false)?;
        }
        // The final copy, into the consumer's slice: one charge per call.
        self.io.meter().add_bytes(filled * T::DATATYPE.size_bytes());
        if filled == 0 && !out.is_empty() {
            // Nothing buffered and nothing can arrive from a dead peer
            // process: fail fast instead of polling forever.
            if let Some(e) = self.io.peer_error() {
                return Err(e);
            }
        }
        Ok(filled)
    }

    /// Elements popped so far.
    pub fn popped(&self) -> u64 {
        self.received
    }

    /// The channel's element count.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl<T: SmiType> Drop for RecvChannel<T> {
    fn drop(&mut self) {
        // Best-effort delivery of a final coalesced grant so a sender
        // mid-window is not stranded by an early close.
        let _ = self.maybe_grant(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{CksLanes, EndpointTable, PacketRx, PortRes};
    use crate::transport::link::{burst_queue, LinkSend, QueueTx};
    use crate::transport::socket::{FabricHealth, PeerDown, PeerDownKind, PeerInfo};
    use crate::transport::{Burst, CopyMeter};
    use crossbeam::channel::{bounded, Receiver};
    use smi_codegen::OpSpec;
    use smi_wire::{Datatype, Frame, PacketRun};

    /// Port 0 of rank 0 with both p2p kinds and port 1 with a reduce, over
    /// loopback FIFOs, on a health board the test holds: `(table, health,
    /// data in, lane out)`.
    fn table() -> (EndpointTableHandle, FabricHealth, QueueTx, Receiver<Burst>) {
        let health = FabricHealth::default();
        let meter = CopyMeter::default();
        let mut t = EndpointTable::with_health(health.clone(), meter.clone());
        let ((data_tx, data_rx), (lane_tx, lane_rx)) = (burst_queue(4), bounded(64));
        let reduce = OpSpec::reduce(1, Datatype::Int, smi_wire::ReduceOp::Add);
        for (op, rx) in [
            (OpSpec::send(0, Datatype::Int), None),
            (OpSpec::recv(0, Datatype::Int), Some(data_rx)),
            (reduce, None),
        ] {
            let lanes = CksLanes::loopback(Box::new(lane_tx.clone()));
            let rx = rx.map(|rx| PacketRx::new(rx, meter.clone()));
            t.put(op.port, op.kind, PortRes::new(&op, lanes, rx));
        }
        let t = std::sync::Arc::new(parking_lot::Mutex::new(t));
        (t, health, data_tx, lane_rx)
    }

    fn peer_dies(health: &FabricHealth) {
        health.mark_down(PeerDown {
            peer: PeerInfo {
                rank: 1,
                process: 1,
                backend: "uds",
                addr: String::new(),
            },
            detail: String::new(),
            kind: PeerDownKind::Link,
        });
    }

    /// A call that moved elements returns them although the peer is dead;
    /// only the next call, which can move nothing, reports the death.
    #[test]
    fn p2p_try_calls_fail_fast_only_when_they_move_nothing() {
        let params = RuntimeParams::default();
        let (t, health, data_tx, _lane_rx) = table();
        let run = PacketRun::from_elems(1, 0, 0, PacketOp::Send, &[4i32, 5, 6]);
        assert!(matches!(
            data_tx.push(vec![Frame::Run(run)]),
            LinkSend::Accepted
        ));
        let mut rx = RecvChannel::<i32>::open(t, 0, 1, 0, 8, Protocol::Eager, &params).unwrap();
        peer_dies(&health);
        let mut out = [0i32; 8];
        assert_eq!(rx.try_pop_slice(&mut out).unwrap(), 3);
        assert_eq!(out[..3], [4, 5, 6]);
        let err = rx.try_pop_slice(&mut out[3..]);
        assert!(matches!(err, Err(SmiError::PeerDisconnected { rank: 1 })));

        let (t, health, _data_tx, _lane_rx) = table();
        let credit = Protocol::Credit { window: 3 };
        let mut tx = SendChannel::<i32>::open(t, 0, 1, 0, 8, credit, &params).unwrap();
        peer_dies(&health);
        let values = [1i32; 8];
        assert_eq!(tx.try_push_slice(&values).unwrap(), 3);
        let err = tx.try_push_slice(&values[3..]);
        assert!(matches!(err, Err(SmiError::PeerDisconnected { rank: 1 })));
    }

    /// A credit window outside `1..=u32::MAX` fails either end's open, and
    /// a reduce member's, with a typed error and leaves the port free: a
    /// window of 0 would leave both ends waiting out the stall bound (and
    /// panicked a reduce), and a larger one would not fit a grant.
    #[test]
    fn a_window_outside_one_to_u32_max_fails_the_open() {
        use crate::collectives::topology::WireEdges;
        use crate::collectives::ReduceChannel;
        use crate::comm::Communicator;
        let (t, ..) = table();
        let comm = Communicator::of_members(vec![0, 1], 0);
        let reduce = |window| {
            let params = RuntimeParams {
                reduce_credits: window,
                ..RuntimeParams::default()
            };
            let edges = WireEdges {
                parent: Some(1),
                children: Vec::new(),
            };
            ReduceChannel::<i32>::open(t.clone(), &comm, 8, 1, edges, &params)
        };
        let params = RuntimeParams::default();
        for window in [0, u64::from(u32::MAX) + 1, u64::MAX] {
            let credit = Protocol::Credit { window };
            let tx = SendChannel::<i32>::open(t.clone(), 0, 1, 0, 8, credit, &params);
            let rx = RecvChannel::<i32>::open(t.clone(), 0, 1, 0, 8, credit, &params);
            let bad = |e: &SmiError| matches!(e, SmiError::ProtocolViolation { .. });
            assert!(tx.err().is_some_and(|e| bad(&e)), "send, window {window}");
            assert!(rx.err().is_some_and(|e| bad(&e)), "recv, window {window}");
            let leaf = reduce(window);
            assert!(
                leaf.err().is_some_and(|e| bad(&e)),
                "reduce, window {window}"
            );
        }
        let credit = Protocol::Credit {
            window: u64::from(u32::MAX),
        };
        assert!(SendChannel::<i32>::open(t.clone(), 0, 1, 0, 8, credit, &params).is_ok());
        assert!(RecvChannel::<i32>::open(t.clone(), 0, 1, 0, 8, credit, &params).is_ok());
        assert!(reduce(u64::from(u32::MAX)).is_ok());
    }

    /// A credit-mode sender claims one grant per spent window, so its
    /// window closes at every grant's end whatever queued: two grants
    /// counted at once still frame as two 3-element packets, not one of 6.
    #[test]
    fn a_sender_closes_its_window_at_every_grant() {
        let params = RuntimeParams::default();
        let (t, _health, _data_tx, lane_rx) = table();
        let credit = Protocol::Credit { window: 3 };
        let mut tx = SendChannel::<i32>::open(t, 0, 1, 0, 9, credit, &params).unwrap();
        let values = [1i32; 9];
        assert_eq!(tx.try_push_slice(&values).unwrap(), 3);
        tx.io.ctl().lock().grants.extend([3, 3]);
        assert_eq!(tx.try_push_slice(&values[3..]).unwrap(), 6);
        let elems: Vec<usize> = lane_rx.try_iter().flatten().map(|f| f.elems()).collect();
        assert_eq!(elems, [3, 3, 3]);
    }

    /// A member waiting for credit fails fast once a peer process is dead:
    /// a credit-mode sender and a reduce leaf that spent their windows get
    /// `PeerDisconnected` from the next call, not a stall.
    #[test]
    fn credit_waits_fail_fast_when_the_peer_dies() {
        use crate::collectives::topology::WireEdges;
        use crate::collectives::ReduceChannel;
        use crate::comm::Communicator;
        let params = RuntimeParams {
            reduce_credits: 4,
            ..RuntimeParams::default()
        };
        let (t, health, _data_tx, _lane_rx) = table();
        let credit = Protocol::Credit { window: 3 };
        let mut tx = SendChannel::<i32>::open(t.clone(), 0, 1, 0, 8, credit, &params).unwrap();
        let edges = WireEdges {
            parent: Some(1),
            children: Vec::new(),
        };
        let comm = Communicator::of_members(vec![0, 1], 0);
        let mut leaf = ReduceChannel::<i32>::open(t, &comm, 8, 1, edges, &params).unwrap();
        let values = [1i32; 8];
        assert_eq!(tx.try_push_slice(&values).unwrap(), 3);
        assert_eq!(leaf.try_reduce_slice(&values, &mut []).unwrap(), 4);
        assert_eq!(tx.try_push_slice(&values[3..]).unwrap(), 0, "no grant yet");
        assert_eq!(leaf.try_reduce_slice(&values[4..], &mut []).unwrap(), 0);
        peer_dies(&health);
        let err = tx.try_push_slice(&values[3..]);
        assert!(matches!(err, Err(SmiError::PeerDisconnected { rank: 1 })));
        let err = leaf.try_reduce_slice(&values[4..], &mut []);
        assert!(matches!(err, Err(SmiError::PeerDisconnected { rank: 1 })));
    }
}
