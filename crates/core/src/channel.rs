//! Point-to-point transient channels: `SMI_Open_send_channel` /
//! `SMI_Open_recv_channel` with `SMI_Push` / `SMI_Pop`.
//!
//! Channels are opened with an element count, datatype (the Rust element
//! type), peer rank and port, and are implicitly closed once `count`
//! elements have moved (§3.1.1). `push`/`pop` are blocking, pipelined to one
//! element per call, and preserve order — the paper's semantics for
//! `SMI_Push`/`SMI_Pop`.
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
use std::time::Duration;

use crossbeam::channel::TrySendError;
use smi_wire::{Deframer, Frame, Framer, NetworkPacket, PacketOp, SmiType};

use crate::endpoint::{
    expect_op, refill, send_burst, send_packet, EndpointTableHandle, RecvRes, SendRes,
};
use crate::transport::socket::FabricHealth;
use crate::transport::{Burst, CopyMeter};
use crate::SmiError;

/// Transmission protocol of a point-to-point channel (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Push into the network immediately ("elements can be pushed into the
    /// network without first performing a handshake with the receiver").
    Eager,
    /// Credit-based flow control with the given element window; both ends of
    /// the channel must use the same protocol and window.
    Credit {
        /// Window size in elements.
        window: u64,
    },
}

/// The sending end of a transient channel (`SMI_Channel` from
/// `SMI_Open_send_channel`).
pub struct SendChannel<T: SmiType> {
    port: usize,
    count: u64,
    sent: u64,
    framer: Framer,
    res: Option<SendRes>,
    /// The lane every packet of this channel enters (its destination's).
    lane: usize,
    table: EndpointTableHandle,
    protocol: Protocol,
    credits: u64,
    timeout: Duration,
    /// Completed packets not yet handed to the CKS (bulk paths only).
    staged: Burst,
    /// Burst size cap ([`crate::RuntimeParams::burst_packets`]).
    max_burst: usize,
    copies: CopyMeter,
    health: FabricHealth,
    _elem: PhantomData<T>,
}

impl<T: SmiType> SendChannel<T> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn open(
        table: EndpointTableHandle,
        my_wire_rank: u8,
        dst_wire_rank: u8,
        port: usize,
        count: u64,
        protocol: Protocol,
        timeout: Duration,
        max_burst: usize,
    ) -> Result<Self, SmiError> {
        let res = table.lock().take_send(port)?;
        if res.dtype != T::DATATYPE {
            let declared = res.dtype;
            table.lock().put_send(port, res);
            return Err(SmiError::TypeMismatch {
                declared,
                requested: T::DATATYPE,
            });
        }
        let lane = res.to_cks.lane(dst_wire_rank);
        let port_wire = smi_wire::header::port_to_wire(port)?;
        let credits = match protocol {
            Protocol::Eager => u64::MAX,
            Protocol::Credit { window } => window,
        };
        let (health, copies) = {
            let t = table.lock();
            (t.health.clone(), t.copies.clone())
        };
        Ok(SendChannel {
            port,
            count,
            sent: 0,
            framer: Framer::new(
                T::DATATYPE,
                my_wire_rank,
                dst_wire_rank,
                port_wire,
                PacketOp::Send,
            ),
            res: Some(res),
            lane,
            table,
            protocol,
            credits,
            timeout,
            staged: Vec::new(),
            max_burst: max_burst.max(1),
            copies,
            health,
            _elem: PhantomData,
        })
    }

    /// Wire packets the staged burst stands for (runs count whole).
    fn staged_packets(&self) -> usize {
        self.staged.iter().map(|f| f.packet_count()).sum()
    }

    /// Blocking wait for a credit grant (credit protocol, empty window).
    fn wait_credit(&mut self) -> Result<(), SmiError> {
        let got = {
            let res = self.res.as_mut().expect("resource held while open");
            res.credit_rx
                .recv_packet(self.timeout, "credit grant", &self.health)
        };
        let pkt = got.map_err(|e| self.health.escalate(e))?;
        expect_op(&pkt.header, PacketOp::Credit)?;
        self.credits += pkt.control_arg() as u64;
        Ok(())
    }

    /// Absorb any grants already delivered, without blocking.
    fn absorb_credits(&mut self) -> Result<(), SmiError> {
        let res = self.res.as_mut().expect("resource held while open");
        while let Some(pkt) = res.credit_rx.try_recv_packet()? {
            expect_op(&pkt.header, PacketOp::Credit)?;
            self.credits += pkt.control_arg() as u64;
        }
        Ok(())
    }

    /// Hand the staged burst to the CKS, blocking on backpressure.
    fn flush_staged(&mut self) -> Result<(), SmiError> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let burst = std::mem::take(&mut self.staged);
        let res = self.res.as_ref().expect("resource held while open");
        send_burst(
            &res.to_cks.lanes[self.lane],
            burst,
            self.timeout,
            "send-channel backpressure",
            &self.health,
        )
        .map_err(|e| self.health.escalate(e))
    }

    /// Hand the staged burst to the CKS without blocking. Returns `false`
    /// (burst retained) when the FIFO is full.
    fn try_flush_staged(&mut self) -> Result<bool, SmiError> {
        if self.staged.is_empty() {
            return Ok(true);
        }
        let burst = std::mem::take(&mut self.staged);
        let res = self.res.as_ref().expect("resource held while open");
        match res.to_cks.lanes[self.lane].try_send(burst) {
            Ok(()) => Ok(true),
            Err(TrySendError::Full(b)) => {
                self.staged = b;
                Ok(false)
            }
            Err(TrySendError::Disconnected(_)) => Err(SmiError::TransportClosed),
        }
    }

    /// `SMI_Push`: append one element to the message. Blocks on backpressure
    /// (and, in credit mode, on an exhausted window).
    pub fn push(&mut self, value: &T) -> Result<(), SmiError> {
        if self.sent == self.count {
            return Err(SmiError::CountExceeded { count: self.count });
        }
        if matches!(self.protocol, Protocol::Credit { .. }) && self.credits == 0 {
            self.wait_credit()?;
        }
        self.sent += 1;
        if self.credits != u64::MAX {
            self.credits -= 1;
        }
        // Framing stages the element's bytes into a packet payload.
        self.copies.add_bytes(T::DATATYPE.size_bytes());
        let full = self.framer.push(value);
        // Flush the partial packet at the message end and, in credit mode,
        // when the window closes — otherwise a window smaller than the
        // packet capacity would strand elements in the framer while the
        // receiver (whose grants are driven by arriving data) waits forever.
        let must_flush = self.sent == self.count || self.credits == 0;
        let maybe_pkt = if must_flush {
            full.or_else(|| self.framer.flush())
        } else {
            full
        };
        if let Some(pkt) = maybe_pkt {
            // Per-element pushes forward each completed packet immediately:
            // lockstep programs rely on packet-granularity progress.
            self.staged.push(pkt.into());
            self.flush_staged()?;
        }
        Ok(())
    }

    /// Bulk `SMI_Push`: append a whole slice, framing directly into packets
    /// and handing them to the transport in bursts of up to
    /// `burst_packets`. Blocks on backpressure and credit waits; when it
    /// returns, every element has been accepted by the transport layer.
    ///
    /// A slice larger than the channel's remaining count fails atomically
    /// up front: nothing is consumed.
    pub fn push_slice(&mut self, values: &[T]) -> Result<(), SmiError> {
        if values.len() as u64 > self.count - self.sent {
            return Err(SmiError::CountExceeded { count: self.count });
        }
        let mut i = 0usize;
        while i < values.len() {
            if matches!(self.protocol, Protocol::Credit { .. }) && self.credits == 0 {
                self.wait_credit()?;
            }
            i += self.frame_chunk(&values[i..]);
            if self.staged_packets() >= self.max_burst || self.must_flush_now() {
                self.flush_staged()?;
            }
        }
        self.flush_staged()
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
        if !self.try_flush_staged()? {
            return Ok(0);
        }
        let mut consumed = 0usize;
        while consumed < values.len() {
            if matches!(self.protocol, Protocol::Credit { .. }) && self.credits == 0 {
                self.absorb_credits()?;
                if self.credits == 0 {
                    break;
                }
            }
            consumed += self.frame_chunk(&values[consumed..]);
            if (self.staged_packets() >= self.max_burst || self.must_flush_now())
                && !self.try_flush_staged()?
            {
                break;
            }
        }
        if consumed == 0 && !values.is_empty() {
            // Making no headway at all while a peer process is dead: fail
            // fast instead of letting the caller poll forever.
            if let Some(e) = self.health.error() {
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
            .frame_slice(&values[..avail], to_end, self.max_burst);
        self.copies.add_bytes(taken * T::DATATYPE.size_bytes());
        self.staged.extend(frame);
        self.sent += taken as u64;
        if self.credits != u64::MAX {
            self.credits -= taken as u64;
        }
        if self.credits == 0 {
            self.staged.extend(self.framer.flush().map(Frame::Pkt));
        }
        taken
    }

    /// Whether a partial packet must leave the framer now (message end or
    /// closed credit window).
    fn must_flush_now(&self) -> bool {
        self.sent == self.count || self.credits == 0
    }

    /// Non-blocking drain of any staged packets; `Ok(true)` when nothing is
    /// left staged.
    pub fn try_flush(&mut self) -> Result<bool, SmiError> {
        self.try_flush_staged()
    }

    /// True once all `count` elements have been accepted by the transport
    /// (nothing staged, nothing pending in the framer).
    pub fn fully_sent(&self) -> bool {
        self.sent == self.count && self.staged.is_empty() && self.framer.pending() == 0
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
        // elements were semantically "pushed") and frees the port. The
        // handover is best-effort (try_send): Drop may run on an executor
        // worker, and blocking there would wedge the very thread that
        // drains the FIFO.
        if let Some(res) = self.res.take() {
            if let Some(pkt) = self.framer.flush() {
                self.staged.push(pkt.into());
            }
            if !self.staged.is_empty() {
                let _ = res.to_cks.lanes[self.lane].try_send(std::mem::take(&mut self.staged));
            }
            self.table.lock().put_send(self.port, res);
        }
    }
}

/// The receiving end of a transient channel (`SMI_Channel` from
/// `SMI_Open_recv_channel`).
pub struct RecvChannel<T: SmiType> {
    port: usize,
    count: u64,
    received: u64,
    deframer: Deframer,
    res: Option<RecvRes>,
    /// The lane credit grants enter (the sender's).
    grant_lane: usize,
    table: EndpointTableHandle,
    my_wire_rank: u8,
    src_wire_rank: u8,
    protocol: Protocol,
    /// Elements consumed but not yet granted back (credit protocol). Grants
    /// are coalesced: one grant packet per half-window (or message end),
    /// checked at packet boundaries on the bulk paths.
    ungranted: u64,
    timeout: Duration,
    copies: CopyMeter,
    health: FabricHealth,
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
        timeout: Duration,
    ) -> Result<Self, SmiError> {
        let res = table.lock().take_recv(port)?;
        if res.dtype != T::DATATYPE {
            let declared = res.dtype;
            table.lock().put_recv(port, res);
            return Err(SmiError::TypeMismatch {
                declared,
                requested: T::DATATYPE,
            });
        }
        let grant_lane = res.to_cks.lane(src_wire_rank);
        let (health, copies) = {
            let t = table.lock();
            (t.health.clone(), t.copies.clone())
        };
        Ok(RecvChannel {
            port,
            count,
            received: 0,
            deframer: Deframer::new(T::DATATYPE),
            res: Some(res),
            grant_lane,
            table,
            my_wire_rank,
            src_wire_rank,
            protocol,
            ungranted: 0,
            timeout,
            copies,
            health,
            _elem: PhantomData,
        })
    }

    /// Send a coalesced credit grant if enough elements accumulated (or the
    /// message completed). `blocking` selects the transport handover mode;
    /// in non-blocking mode an un-sendable grant stays accumulated and is
    /// retried on the next call.
    fn maybe_grant(&mut self, blocking: bool) -> Result<(), SmiError> {
        let window = match self.protocol {
            Protocol::Credit { window } => window,
            Protocol::Eager => return Ok(()),
        };
        let batch = (window / 2).max(1);
        if self.ungranted < batch && self.received != self.count {
            return Ok(());
        }
        if self.ungranted == 0 {
            return Ok(());
        }
        let grant = NetworkPacket::control(
            self.my_wire_rank,
            self.src_wire_rank,
            self.port as u8,
            PacketOp::Credit,
            self.ungranted as u32,
        );
        let res = self.res.as_ref().expect("resource held while open");
        let lane = &res.to_cks.lanes[self.grant_lane];
        if blocking {
            send_packet(lane, grant, self.timeout, "credit grant path", &self.health)?;
        } else {
            match lane.try_send(vec![grant.into()]) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => return Ok(()), // retry later
                Err(TrySendError::Disconnected(_)) => return Err(SmiError::TransportClosed),
            }
        }
        self.ungranted = 0;
        Ok(())
    }

    /// `SMI_Pop`: receive the next element, blocking until it arrives.
    pub fn pop(&mut self) -> Result<T, SmiError> {
        if self.received == self.count {
            return Err(SmiError::CountExceeded { count: self.count });
        }
        while self.deframer.is_empty() {
            let got = {
                let res = self.res.as_mut().expect("resource held while open");
                res.from_ckr
                    .recv_frame(self.timeout, "message data", &self.health)
            };
            let frame = got.map_err(|e| self.health.escalate(e))?;
            refill(&mut self.deframer, frame, PacketOp::Send, &self.copies)?;
        }
        let v = self.deframer.pop::<T>().expect("non-empty deframer");
        self.copies.add_bytes(T::DATATYPE.size_bytes());
        self.received += 1;
        self.ungranted += u64::from(matches!(self.protocol, Protocol::Credit { .. }));
        self.maybe_grant(true)?;
        Ok(v)
    }

    /// Bulk `SMI_Pop`: fill the whole slice, blocking until every element
    /// arrived. Credit grants are coalesced per packet rather than per
    /// element.
    ///
    /// A slice larger than the channel's remaining count fails atomically
    /// up front: nothing is consumed.
    pub fn pop_slice(&mut self, out: &mut [T]) -> Result<(), SmiError> {
        if out.len() as u64 > self.count - self.received {
            return Err(SmiError::CountExceeded { count: self.count });
        }
        let mut filled = 0usize;
        while filled < out.len() {
            if self.deframer.is_empty() {
                let got = {
                    let res = self.res.as_mut().expect("resource held while open");
                    res.from_ckr
                        .recv_frame(self.timeout, "message data", &self.health)
                };
                let frame = got.map_err(|e| self.health.escalate(e))?;
                refill(&mut self.deframer, frame, PacketOp::Send, &self.copies)?;
            }
            filled += self.drain_deframer(&mut out[filled..]);
            self.maybe_grant(true)?;
        }
        Ok(())
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
                let got = {
                    let res = self.res.as_mut().expect("resource held while open");
                    res.from_ckr.try_recv_frame()?
                };
                match got {
                    Some(frame) => refill(&mut self.deframer, frame, PacketOp::Send, &self.copies)?,
                    None => break,
                }
            }
            filled += self.drain_deframer(&mut out[filled..]);
            self.maybe_grant(false)?;
        }
        if filled == 0 && !out.is_empty() {
            // Nothing buffered and nothing can arrive from a dead peer
            // process: fail fast instead of polling forever.
            if let Some(e) = self.health.error() {
                return Err(e);
            }
        }
        Ok(filled)
    }

    /// Move elements from the deframer into `out`, bounded by the channel
    /// count; updates progress and grant accounting.
    fn drain_deframer(&mut self, out: &mut [T]) -> usize {
        let cap = out.len().min((self.count - self.received) as usize);
        let n = self.deframer.pop_slice(&mut out[..cap]);
        // The final, semantically required copy: elements land in the
        // consumer's slice.
        self.copies.add_bytes(n * T::DATATYPE.size_bytes());
        self.received += n as u64;
        if matches!(self.protocol, Protocol::Credit { .. }) {
            self.ungranted += n as u64;
        }
        n
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
        if let Some(res) = self.res.take() {
            // Best-effort delivery of a final coalesced grant so a sender
            // mid-window is not stranded by an early close.
            if self.ungranted > 0 {
                let grant = NetworkPacket::control(
                    self.my_wire_rank,
                    self.src_wire_rank,
                    self.port as u8,
                    PacketOp::Credit,
                    self.ungranted as u32,
                );
                let _ = res.to_cks.lanes[self.grant_lane].try_send(vec![grant.into()]);
            }
            self.table.lock().put_recv(self.port, res);
        }
    }
}
