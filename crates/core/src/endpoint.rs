//! Application-side endpoint resources.
//!
//! One SMI port corresponds to fixed hardware laid down at "compile time"
//! (here: at cluster startup, from the generated design). Opening a transient
//! channel *takes* the port's endpoint resource; closing the channel (drop)
//! returns it, so a port can host any number of sequential transient
//! channels but never two concurrent ones.
//!
//! All endpoint FIFOs move packet [`Burst`]s: bulk channel operations hand
//! over many packets per queue operation, and receive-side resources carry a
//! [`PacketRx`] that unbatches bursts back into a packet stream (buffered
//! state lives with the resource, so it survives channel reopen cycles).

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, TrySendError};
use parking_lot::Mutex;
use smi_codegen::OpKind;
use smi_wire::{Datatype, Deframer, Frame, Header, NetworkPacket, PacketOp, PacketRun, ReduceOp};

use crate::transport::executor::{block_on_deadline, BlockingStep};
use crate::transport::link::FifoTx;
use crate::transport::socket::FabricHealth;
use crate::transport::{meter_inline_data, Burst, CopyMeter};
use crate::SmiError;

/// The wait slice blocking waits use so the fabric-health board is checked
/// at a useful cadence (mid-stream reconnects last tens of milliseconds to
/// seconds). Data arrival still unblocks immediately.
const HEALTH_POLL_SLICE: Duration = Duration::from_millis(20);

/// Blocking burst send with the runtime's timeout: a permanently jammed
/// transport surfaces as an error instead of wedging the rank thread.
///
/// The stall window keeps resetting while a mid-stream socket reconnect is
/// in flight (`health`): recovery must not be misreported as a timeout.
/// Reconnects are budget-bounded, so a failed one still ends the wait.
pub(crate) fn send_burst(
    tx: &FifoTx,
    burst: Burst,
    timeout: std::time::Duration,
    waiting_for: &'static str,
    health: &FabricHealth,
) -> Result<(), SmiError> {
    use crossbeam::channel::SendTimeoutError;
    use std::time::Instant;
    let mut burst = burst;
    let mut deadline = Instant::now() + timeout;
    loop {
        match tx.send_timeout(burst, timeout.min(HEALTH_POLL_SLICE)) {
            Ok(()) => return Ok(()),
            Err(SendTimeoutError::Timeout(b)) => {
                burst = b;
                if health.any_reconnecting() {
                    deadline = Instant::now() + timeout;
                } else if Instant::now() >= deadline {
                    return Err(SmiError::Timeout { waiting_for });
                }
            }
            Err(SendTimeoutError::Disconnected(_)) => return Err(SmiError::TransportClosed),
        }
    }
}

/// Blocking single-packet send (control packets: syncs, grants).
pub(crate) fn send_packet(
    tx: &FifoTx,
    pkt: NetworkPacket,
    timeout: std::time::Duration,
    waiting_for: &'static str,
    health: &FabricHealth,
) -> Result<(), SmiError> {
    send_burst(tx, vec![pkt.into()], timeout, waiting_for, health)
}

/// Expect a specific op on a receive path.
pub(crate) fn expect_op(header: &Header, op: PacketOp) -> Result<(), SmiError> {
    if header.op == op {
        Ok(())
    } else {
        Err(SmiError::ProtocolViolation {
            detail: format!("expected {:?}, got {:?}", op, header.op),
        })
    }
}

/// Load a received data frame into `deframer` once it proved to carry
/// `op`: an inline packet's payload is copied in (metered), a run hands
/// its refcounted buffer over whole.
pub(crate) fn refill(
    deframer: &mut Deframer,
    frame: impl Into<Frame>,
    op: PacketOp,
    meter: &CopyMeter,
) -> Result<(), SmiError> {
    let frame = frame.into();
    expect_op(frame.header(), op)?;
    match frame {
        Frame::Pkt(p) => {
            meter.add_packets(1);
            deframer.refill(p);
        }
        Frame::Run(r) => deframer.refill_run(r.payload),
    }
    Ok(())
}

/// Receive side of a burst FIFO, unbatched back into a frame (or packet)
/// stream. The pending queue holds the tail of the last burst.
///
/// Frame-aware consumers ([`PacketRx::try_recv_frame`]) receive
/// [`Frame::Run`]s whole — an `Arc` handle move, no payload copy. The
/// packet-oriented receives materialize runs one packet at a time (a
/// metered copy per packet), so protocol paths that reason packet-wise
/// keep working whatever the sender staged.
#[derive(Debug)]
pub(crate) struct PacketRx {
    rx: Receiver<Burst>,
    pending: VecDeque<Frame>,
    /// A run being materialized packet-by-packet: `(run, next packet idx)`.
    partial: Option<(PacketRun, usize)>,
    meter: CopyMeter,
}

impl PacketRx {
    pub fn new(rx: Receiver<Burst>, meter: CopyMeter) -> Self {
        PacketRx {
            rx,
            pending: VecDeque::new(),
            partial: None,
            meter,
        }
    }

    /// Stage an arrived burst into the pending queue. Copying inline data
    /// packets into the queue is a real payload-plane copy and is metered;
    /// run frames move as handles.
    fn absorb(&mut self, b: Burst) {
        meter_inline_data(&self.meter, &b);
        self.pending.extend(b);
    }

    /// Next buffered packet, materializing runs packet-by-packet (metered).
    fn pop_pending_packet(&mut self) -> Option<NetworkPacket> {
        loop {
            if let Some((run, idx)) = &mut self.partial {
                let pkt = run.packet(*idx);
                *idx += 1;
                if *idx == run.packet_count() {
                    self.partial = None;
                }
                self.meter.add_packets(1);
                return Some(pkt);
            }
            match self.pending.pop_front() {
                Some(Frame::Pkt(p)) => return Some(p),
                Some(Frame::Run(r)) => {
                    if r.packet_count() > 0 {
                        self.partial = Some((r, 0));
                    }
                }
                None => return None,
            }
        }
    }

    /// Next buffered frame. A half-materialized run resumes as packets so
    /// mixed packet/frame consumption never reorders elements.
    fn pop_pending_frame(&mut self) -> Option<Frame> {
        if self.partial.is_some() {
            return self.pop_pending_packet().map(Frame::Pkt);
        }
        self.pending.pop_front()
    }

    /// Blocking packet receive with the runtime's timeout and uniform error
    /// mapping. The stall window keeps resetting while a mid-stream socket
    /// reconnect is in flight (`health`) — see [`send_burst`].
    pub fn recv_packet(
        &mut self,
        timeout: std::time::Duration,
        waiting_for: &'static str,
        health: &FabricHealth,
    ) -> Result<NetworkPacket, SmiError> {
        use crossbeam::channel::RecvTimeoutError;
        use std::time::Instant;
        let mut deadline = Instant::now() + timeout;
        loop {
            if let Some(p) = self.pop_pending_packet() {
                return Ok(p);
            }
            match self.rx.recv_timeout(timeout.min(HEALTH_POLL_SLICE)) {
                Ok(b) => self.absorb(b),
                Err(RecvTimeoutError::Timeout) => {
                    if health.any_reconnecting() {
                        deadline = Instant::now() + timeout;
                    } else if Instant::now() >= deadline {
                        return Err(SmiError::Timeout { waiting_for });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return Err(SmiError::TransportClosed),
            }
        }
    }

    /// Non-blocking packet receive: `Ok(None)` when nothing is buffered.
    pub fn try_recv_packet(&mut self) -> Result<Option<NetworkPacket>, SmiError> {
        use crossbeam::channel::TryRecvError;
        loop {
            if let Some(p) = self.pop_pending_packet() {
                return Ok(Some(p));
            }
            match self.rx.try_recv() {
                Ok(b) => self.absorb(b),
                Err(TryRecvError::Empty) => return Ok(None),
                Err(TryRecvError::Disconnected) => return Err(SmiError::TransportClosed),
            }
        }
    }

    /// Blocking frame receive — the frame-aware twin of
    /// [`PacketRx::recv_packet`], with the same timeout/health semantics.
    pub fn recv_frame(
        &mut self,
        timeout: std::time::Duration,
        waiting_for: &'static str,
        health: &FabricHealth,
    ) -> Result<Frame, SmiError> {
        use crossbeam::channel::RecvTimeoutError;
        use std::time::Instant;
        let mut deadline = Instant::now() + timeout;
        loop {
            if let Some(f) = self.pop_pending_frame() {
                return Ok(f);
            }
            match self.rx.recv_timeout(timeout.min(HEALTH_POLL_SLICE)) {
                Ok(b) => self.absorb(b),
                Err(RecvTimeoutError::Timeout) => {
                    if health.any_reconnecting() {
                        deadline = Instant::now() + timeout;
                    } else if Instant::now() >= deadline {
                        return Err(SmiError::Timeout { waiting_for });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return Err(SmiError::TransportClosed),
            }
        }
    }

    /// Non-blocking frame receive: run frames are delivered whole (no
    /// payload copy) — the zero-copy consumer path.
    pub fn try_recv_frame(&mut self) -> Result<Option<Frame>, SmiError> {
        use crossbeam::channel::TryRecvError;
        loop {
            if let Some(f) = self.pop_pending_frame() {
                return Ok(Some(f));
            }
            match self.rx.try_recv() {
                Ok(b) => self.absorb(b),
                Err(TryRecvError::Empty) => return Ok(None),
                Err(TryRecvError::Disconnected) => return Err(SmiError::TransportClosed),
            }
        }
    }
}

/// An endpoint's send path: one FIFO (a *lane*) into every CKS of its rank,
/// in CK-pair order. A packet enters the lane of the CKS whose port its next
/// hop leaves by, so its first CK forward puts it on the link; a packet for
/// the endpoint's own rank enters the lane of the CKS it is bound to. Every
/// lane is a [`FifoTx`]: each push, blocking or not, raises that kernel's
/// wake handle.
#[derive(Debug)]
pub(crate) struct CksLanes {
    pub lanes: Vec<FifoTx>,
    /// The rank's routing table: wire rank → CK pair of the next hop (past
    /// the last lane for the own rank). Shared with the rank's kernels.
    pub next_pair: Arc<Vec<usize>>,
    /// The CK pair the endpoint is bound to.
    pub bound: usize,
}

impl CksLanes {
    /// A single rank's loopback: one lane, which every packet takes.
    pub fn loopback(tx: FifoTx) -> Self {
        CksLanes {
            lanes: vec![tx],
            next_pair: Arc::default(),
            bound: 0,
        }
    }

    /// The lane a packet to wire rank `dst` enters.
    pub fn lane(&self, dst: u8) -> usize {
        match self.next_pair.get(usize::from(dst)) {
            Some(&pair) if pair < self.lanes.len() => pair,
            _ => self.bound,
        }
    }
}

/// Send-side endpoint hardware: the lanes into the rank's CKSs, plus the
/// credit-return path used by the credit-based protocol.
#[derive(Debug)]
pub(crate) struct SendRes {
    pub dtype: Datatype,
    pub to_cks: CksLanes,
    pub credit_rx: PacketRx,
}

/// Receive-side endpoint hardware: the FIFO the rank's CKRs deliver into,
/// plus lanes into the CKSs for credit grants (credit-based protocol).
#[derive(Debug)]
pub(crate) struct RecvRes {
    pub dtype: Datatype,
    pub from_ckr: PacketRx,
    pub to_cks: CksLanes,
}

/// Collective endpoint hardware (the support-kernel attachment of §4.4):
/// lanes into the CKSs plus data and credit delivery paths.
#[derive(Debug)]
pub(crate) struct CollRes {
    /// Kept for diagnostics (the declared-kind check happens in the table).
    #[allow(dead_code)]
    pub kind: OpKind,
    pub dtype: Datatype,
    pub reduce_op: Option<ReduceOp>,
    pub to_cks: CksLanes,
    pub rx: PacketRx,
    pub credit_rx: PacketRx,
    /// Packets an earlier channel on this port read for a later message
    /// (a member that finished a message may open the next one at once);
    /// the next open receives them before anything else.
    pub carry: VecDeque<NetworkPacket>,
}

/// Poll-mode handle on a port's collective endpoint: the [`CollRes`] plus
/// one staging burst per lane for outgoing packets (data, syncs, grants,
/// credits).
///
/// Every transmit goes through [`CollIo::stage`] + [`CollIo::try_flush`]:
/// a full lane leaves its burst staged instead of parking the calling
/// thread, which is what lets an in-progress collective open (or any
/// collective operation) run on an executor worker without blocking it. The
/// channel objects re-offer the staged bursts on every poll.
///
/// Tree-scheme collectives fan windows out to a *set of children* rather
/// than to the root's peers: [`CollIo::stage_fanout`] stages a packet
/// window once per child, grouped per destination, so each CKS sees long
/// same-route runs it can forward as whole bursts (`forward_runs`) instead
/// of per-packet splits.
#[derive(Debug)]
pub(crate) struct CollIo {
    port: usize,
    res: Option<CollRes>,
    table: EndpointTableHandle,
    /// `staged[lane]`: frames bound for that lane, in staging order.
    staged: Vec<Burst>,
    timeout: Duration,
    deadline: Option<Duration>,
    max_burst: usize,
    health: FabricHealth,
    copies: CopyMeter,
    /// Packets kept for the port's next open, in arrival order.
    carry: VecDeque<NetworkPacket>,
}

/// The stall bounds of one blocking collective call, fixed when the call
/// starts ([`CollIo::wait`]).
pub(crate) struct Wait {
    timeout: Duration,
    overall: Option<std::time::Instant>,
    health: FabricHealth,
    waiting_for: &'static str,
}

impl Wait {
    /// Spin a non-blocking `step` until it is ready: the stall bound resets
    /// on progress and while a socket reconnect is in flight, the overall
    /// deadline (if any) holds regardless ([`block_on_deadline`]).
    pub fn on<R>(
        self,
        step: impl FnMut() -> Result<BlockingStep<R>, SmiError>,
    ) -> Result<R, SmiError> {
        let health = Some(&self.health);
        block_on_deadline(self.timeout, self.overall, health, self.waiting_for, step)
    }
}

impl CollIo {
    /// Take the collective resource of `port`, checking kind and datatype.
    /// Timing/burst limits come from the runtime configuration.
    pub fn open(
        table: EndpointTableHandle,
        port: usize,
        kind: OpKind,
        dtype: Datatype,
        params: &crate::params::RuntimeParams,
    ) -> Result<Self, SmiError> {
        let res = table.lock().take_coll(port, kind)?;
        if res.dtype != dtype {
            let declared = res.dtype;
            table.lock().put_coll(port, res);
            return Err(SmiError::TypeMismatch {
                declared,
                requested: dtype,
            });
        }
        let (health, copies) = {
            let t = table.lock();
            (t.health.clone(), t.copies.clone())
        };
        let staged = vec![Burst::new(); res.to_cks.lanes.len()];
        Ok(CollIo {
            port,
            res: Some(res),
            table,
            staged,
            timeout: params.blocking_timeout,
            deadline: params.blocking_deadline,
            max_burst: params.burst_packets.max(1),
            health,
            copies,
            carry: VecDeque::new(),
        })
    }

    fn res(&self) -> &CollRes {
        self.res.as_ref().expect("resource held while open")
    }

    fn res_mut(&mut self) -> &mut CollRes {
        self.res.as_mut().expect("resource held while open")
    }

    /// The reduce operator declared for this port (reduce bindings only).
    pub fn reduce_op(&self) -> Option<ReduceOp> {
        self.res().reduce_op
    }

    /// The wait of a blocking call starting now, on behalf of `waiting_for`:
    /// the runtime's stall bound, its overall deadline and the fabric-health
    /// board (the wait keeps polling while a reconnect is in flight).
    pub fn wait(&self, waiting_for: &'static str) -> Wait {
        Wait {
            timeout: self.timeout,
            overall: self.deadline.map(|d| std::time::Instant::now() + d),
            health: self.health.clone(),
            waiting_for,
        }
    }

    /// The configured burst size (packets per transport handover).
    pub fn max_burst(&self) -> usize {
        self.max_burst
    }

    /// The rank's payload-copy meter: collectives charge their own framing,
    /// refill and drain copies against it.
    pub fn meter(&self) -> &CopyMeter {
        &self.copies
    }

    /// Queue a packet for transmission (data or control).
    pub fn stage(&mut self, pkt: NetworkPacket) {
        self.stage_frame(pkt.into());
    }

    /// Queue a frame for transmission (run frames move as handles).
    pub fn stage_frame(&mut self, frame: Frame) {
        let lane = self.res().to_cks.lane(frame.header().dst);
        self.staged[lane].push(frame);
    }

    /// Stage a frame window once per destination in `dsts` (wire ranks),
    /// grouped per child: all of child 0's copies, then child 1's, … so
    /// mixed parent/child bursts reach each CKS as maximal same-route runs.
    /// Inline packets are duplicated per child (a metered payload copy
    /// each); run frames are re-addressed `Arc` clones — no payload moves,
    /// which is what makes tree fan-out zero-copy. The window is drained.
    pub fn stage_fanout(&mut self, window: &mut Vec<Frame>, dsts: &[u8]) {
        for &dst in dsts {
            let lane = self.res().to_cks.lane(dst);
            for f in window.iter() {
                match f {
                    Frame::Pkt(pkt) => {
                        let mut copy = *pkt;
                        copy.header.dst = dst;
                        if copy.header.op.carries_data() {
                            self.copies.add_packets(1);
                        }
                        self.staged[lane].push(copy.into());
                    }
                    Frame::Run(run) => {
                        self.staged[lane].push(Frame::Run(run.with_dst(dst)));
                    }
                }
            }
        }
        window.clear();
    }

    /// Whether the staged bursts reached the configured burst size between
    /// them and should be offered to the transport. Counts wire packets, not
    /// frames, so a staged run the size of a burst flushes like a full
    /// packet burst.
    pub fn stage_full(&self) -> bool {
        let frames = self.staged.iter().flatten();
        frames.map(|f| f.packet_count()).sum::<usize>() >= self.max_burst
    }

    /// Offer every non-empty staged burst to its lane without blocking.
    /// `Ok(true)` when nothing remains staged; `Ok(false)` when a lane was
    /// full and kept its own burst for the next poll (the others moved).
    pub fn try_flush(&mut self) -> Result<bool, SmiError> {
        let lanes = &self.res.as_ref().expect("resource held while open").to_cks;
        let mut flushed = true;
        for (lane, staged) in lanes.lanes.iter().zip(&mut self.staged) {
            if staged.is_empty() {
                continue;
            }
            match lane.try_send(std::mem::take(staged)) {
                Ok(()) => {}
                Err(TrySendError::Full(b)) => {
                    *staged = b;
                    flushed = false;
                }
                Err(TrySendError::Disconnected(_)) => return Err(SmiError::TransportClosed),
            }
        }
        Ok(flushed)
    }

    /// Non-blocking receive from the data/sync delivery path, packets an
    /// earlier channel on the port carried over first.
    ///
    /// Buffered packets are always delivered; once the path runs empty
    /// *and* a peer process has died, the op fails fast with
    /// [`SmiError::PeerDisconnected`] — a collective spans every member, so
    /// waiting out the stall could only end in a timeout anyway.
    pub fn try_recv_data(&mut self) -> Result<Option<NetworkPacket>, SmiError> {
        let res = self.res_mut();
        if let Some(p) = res.carry.pop_front() {
            return Ok(Some(p));
        }
        match res.rx.try_recv_packet()? {
            Some(p) => Ok(Some(p)),
            None => match self.health.error() {
                Some(e) => Err(e),
                None => Ok(None),
            },
        }
    }

    /// Non-blocking frame receive from the data/sync delivery path: run
    /// frames arrive whole (no payload copy). Same peer-death fail-fast as
    /// [`CollIo::try_recv_data`].
    pub fn try_recv_data_frame(&mut self) -> Result<Option<Frame>, SmiError> {
        let res = self.res_mut();
        if let Some(p) = res.carry.pop_front() {
            return Ok(Some(p.into()));
        }
        match res.rx.try_recv_frame()? {
            Some(f) => Ok(Some(f)),
            None => match self.health.error() {
                Some(e) => Err(e),
                None => Ok(None),
            },
        }
    }

    /// Keep a received packet for the port's next open: it belongs to a
    /// later message than this channel's.
    pub fn carry(&mut self, pkt: NetworkPacket) {
        self.carry.push_back(pkt);
    }

    /// Non-blocking receive from the credit delivery path (same
    /// peer-death fail-fast as [`CollIo::try_recv_data`]).
    pub fn try_recv_credit(&mut self) -> Result<Option<NetworkPacket>, SmiError> {
        match self.res_mut().credit_rx.try_recv_packet()? {
            Some(p) => Ok(Some(p)),
            None => match self.health.error() {
                Some(e) => Err(e),
                None => Ok(None),
            },
        }
    }
}

impl Drop for CollIo {
    fn drop(&mut self) {
        if let Some(mut res) = self.res.take() {
            // Best-effort handover of anything still staged (mirrors
            // `SendChannel::drop`): Drop may run on an executor worker, so
            // blocking here would wedge the thread that drains the FIFO.
            for (lane, staged) in res.to_cks.lanes.iter().zip(&mut self.staged) {
                if !staged.is_empty() {
                    let _ = lane.try_send(std::mem::take(staged));
                }
            }
            // What this channel kept arrived before what it never read.
            self.carry.append(&mut res.carry);
            res.carry = std::mem::take(&mut self.carry);
            self.table.lock().put_coll(self.port, res);
        }
    }
}

/// Downstream credit accounting for the contributors feeding one node of a
/// reduce (the root in the linear scheme, any combiner node in the tree
/// scheme). Tracks the total credit granted — including the protocol's
/// *implicit* first window — and clamps every subsequent wire grant to the
/// message tail, so a message whose count is not a multiple of the window
/// size can never be over-granted: the total ever granted is
/// `max(window, count)`, reached exactly.
#[derive(Debug, Clone)]
pub(crate) struct CreditLedger {
    window: u64,
    count: u64,
    granted: u64,
}

impl CreditLedger {
    /// New ledger for a `count`-element message with window size `window`
    /// (the first window is implicitly granted and never on the wire).
    pub fn new(window: u64, count: u64) -> Self {
        debug_assert!(window >= 1);
        CreditLedger {
            window,
            count,
            granted: window,
        }
    }

    /// Called when `emitted` elements have completed: returns the credit
    /// to grant (0 when not at a window boundary, and clamped so the total
    /// granted never exceeds the message count — the tail-window rule).
    pub fn window_grant(&mut self, emitted: u64) -> u64 {
        if emitted == 0 || !emitted.is_multiple_of(self.window) {
            return 0;
        }
        let g = self.window.min(self.count.saturating_sub(self.granted));
        self.granted += g;
        g
    }

    /// Total credit granted so far (implicit first window included).
    pub fn granted(&self) -> u64 {
        self.granted
    }
}

/// All endpoint resources of one port.
#[derive(Debug, Default)]
pub(crate) struct PortEndpoints {
    pub send: Option<SendRes>,
    pub recv: Option<RecvRes>,
    pub coll: Option<CollRes>,
}

/// The per-rank endpoint table, shared between the context and the channel
/// objects (which return their resource on drop).
#[derive(Debug, Default)]
pub(crate) struct EndpointTable {
    pub ports: HashMap<usize, PortEndpoints>,
    /// Fabric-wide peer-liveness board (set by the wiring; the default
    /// never reports down). Channels clone it at open so a dead peer
    /// process surfaces as [`SmiError::PeerDisconnected`] instead of a
    /// generic timeout.
    pub health: FabricHealth,
    /// Payload-plane copy meter (set by the wiring; shared with every
    /// [`PacketRx`] of the rank). Channels clone it at open to account
    /// their own staging copies.
    pub copies: CopyMeter,
    declared_send: Vec<usize>,
    declared_recv: Vec<usize>,
    declared_coll: Vec<(usize, OpKind)>,
}

/// Shared handle to a rank's endpoint table. Lock traffic is confined to
/// channel open/close (never the per-element hot path), so a mutex-guarded
/// handle keeps contexts `Send` — required by the cooperative task plane.
pub(crate) type EndpointTableHandle = Arc<Mutex<EndpointTable>>;

impl EndpointTable {
    /// An empty table wired to the given fabric-health board and payload
    /// copy meter.
    pub fn with_health(health: FabricHealth, copies: CopyMeter) -> EndpointTable {
        EndpointTable {
            health,
            copies,
            ..EndpointTable::default()
        }
    }

    /// Record a declared endpoint (wiring time).
    pub fn declare(&mut self, port: usize, kind: OpKind) {
        match kind {
            OpKind::Send => self.declared_send.push(port),
            OpKind::Recv => self.declared_recv.push(port),
            k => self.declared_coll.push((port, k)),
        }
    }

    /// Take the send resource of `port`.
    pub fn take_send(&mut self, port: usize) -> Result<SendRes, SmiError> {
        if !self.declared_send.contains(&port) {
            return Err(SmiError::NoSuchEndpoint { port, kind: "send" });
        }
        self.ports
            .get_mut(&port)
            .and_then(|p| p.send.take())
            .ok_or(SmiError::EndpointBusy { port })
    }

    /// Take the receive resource of `port`.
    pub fn take_recv(&mut self, port: usize) -> Result<RecvRes, SmiError> {
        if !self.declared_recv.contains(&port) {
            return Err(SmiError::NoSuchEndpoint { port, kind: "recv" });
        }
        self.ports
            .get_mut(&port)
            .and_then(|p| p.recv.take())
            .ok_or(SmiError::EndpointBusy { port })
    }

    /// Take the collective resource of `port`, checking the expected kind.
    pub fn take_coll(&mut self, port: usize, kind: OpKind) -> Result<CollRes, SmiError> {
        if !self.declared_coll.contains(&(port, kind)) {
            return Err(SmiError::NoSuchEndpoint {
                port,
                kind: "collective",
            });
        }
        self.ports
            .get_mut(&port)
            .and_then(|p| p.coll.take())
            .ok_or(SmiError::EndpointBusy { port })
    }

    /// Return a send resource (channel drop).
    pub fn put_send(&mut self, port: usize, res: SendRes) {
        self.ports.entry(port).or_default().send = Some(res);
    }

    /// Return a receive resource (channel drop).
    pub fn put_recv(&mut self, port: usize, res: RecvRes) {
        self.ports.entry(port).or_default().recv = Some(res);
    }

    /// Return a collective resource (channel drop).
    pub fn put_coll(&mut self, port: usize, res: CollRes) {
        self.ports.entry(port).or_default().coll = Some(res);
    }
}

/// Build a shared handle.
pub(crate) fn new_table() -> EndpointTableHandle {
    Arc::new(Mutex::new(EndpointTable::default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;

    fn send_res() -> SendRes {
        let (tx, _rx_keep) = bounded(1);
        let (_ctx, crx) = bounded::<Burst>(1);
        // Leak the keepers: tests only exercise the table mechanics.
        std::mem::forget(_rx_keep);
        std::mem::forget(_ctx);
        SendRes {
            dtype: Datatype::Int,
            to_cks: CksLanes::loopback(tx.into()),
            credit_rx: PacketRx::new(crx, CopyMeter::default()),
        }
    }

    /// Lanes of rank 2 of five over two CK pairs: ranks 0 and 1 are reached
    /// through pair 0, ranks 3 and 4 through pair 1; bound to pair 1.
    fn two_lanes(caps: [usize; 2]) -> (CksLanes, [crossbeam::channel::Receiver<Burst>; 2]) {
        let ((tx0, rx0), (tx1, rx1)) = (bounded(caps[0]), bounded(caps[1]));
        let lanes = CksLanes {
            lanes: vec![tx0.into(), tx1.into()],
            next_pair: Arc::new(vec![0, 0, 2, 1, 1]),
            bound: 1,
        };
        (lanes, [rx0, rx1])
    }

    /// A table declaring a bcast on port 0 over `lanes`, fed by `data_rx`.
    fn coll_table(lanes: CksLanes, data_rx: Receiver<Burst>) -> EndpointTableHandle {
        let (_credit_tx, credit_rx) = bounded::<Burst>(1);
        let t = new_table();
        t.lock().declare(0, OpKind::Bcast);
        t.lock().put_coll(
            0,
            CollRes {
                kind: OpKind::Bcast,
                dtype: Datatype::Int,
                reduce_op: None,
                to_cks: lanes,
                rx: PacketRx::new(data_rx, CopyMeter::default()),
                credit_rx: PacketRx::new(credit_rx, CopyMeter::default()),
                carry: VecDeque::new(),
            },
        );
        t
    }

    fn open_bcast(t: &EndpointTableHandle) -> CollIo {
        let params = crate::params::RuntimeParams::default();
        CollIo::open(t.clone(), 0, OpKind::Bcast, Datatype::Int, &params).unwrap()
    }

    /// A bcast `CollIo` on port 0 over `lanes`.
    fn coll_io(lanes: CksLanes) -> CollIo {
        let (_data_tx, data_rx) = bounded::<Burst>(1);
        open_bcast(&coll_table(lanes, data_rx))
    }

    /// A packet from rank 2 tagged with `seq`.
    fn data(seq: u32) -> Frame {
        NetworkPacket::control(2, 0, 0, smi_wire::PacketOp::Sync, seq).into()
    }

    /// `(dst, seq)` of every frame waiting in `rx`, burst by burst.
    fn frames(rx: &crossbeam::channel::Receiver<Burst>) -> Vec<Vec<(u8, u32)>> {
        let tag = |f: &Frame| match f {
            Frame::Pkt(p) => (p.header.dst, p.control_arg()),
            Frame::Run(_) => panic!("unexpected run"),
        };
        rx.try_iter().map(|b| b.iter().map(tag).collect()).collect()
    }

    #[test]
    fn lane_is_the_next_hops_pair_or_the_bound_one() {
        let (lanes, _rx) = two_lanes([1, 1]);
        let picked: Vec<usize> = (0..5).map(|dst| lanes.lane(dst)).collect();
        assert_eq!(picked, [0, 0, 1, 1, 1]); // own rank 2: the bound pair
        assert_eq!(lanes.lane(9), 1); // off the table: the bound pair
        let (tx, _rx) = bounded(1);
        let loopback = CksLanes::loopback(tx.into());
        assert!((0..=u8::MAX).all(|dst| loopback.lane(dst) == 0));
    }

    #[test]
    fn fanout_flushes_one_in_order_burst_per_lane() {
        let (lanes, rx) = two_lanes([4, 4]);
        let mut io = coll_io(lanes);
        let mut window = vec![data(0), data(1), data(2)];
        io.stage_fanout(&mut window, &[0, 3, 1, 4]);
        assert!(window.is_empty());
        assert!(io.try_flush().unwrap());
        let copies = |dst: u8| (0..3).map(move |seq| (dst, seq));
        let want = |a, b| vec![copies(a).chain(copies(b)).collect::<Vec<_>>()];
        assert_eq!(frames(&rx[0]), want(0, 1));
        assert_eq!(frames(&rx[1]), want(3, 4));
    }

    /// What a channel keeps goes to the port's next open first, ahead of
    /// what it never read, in arrival order — also when that open keeps
    /// some of it again.
    #[test]
    fn carried_packets_reach_the_next_open_first_in_order() {
        let (lanes, _rx) = two_lanes([1, 1]);
        let (data_tx, data_rx) = bounded::<Burst>(1);
        data_tx.send(vec![data(1), data(2), data(3)]).unwrap();
        let t = coll_table(lanes, data_rx);
        let seqs = |io: &mut CollIo, n: usize| {
            let mut next = || io.try_recv_data().unwrap().expect("a packet");
            (0..n).map(|_| next()).collect::<Vec<_>>()
        };
        let mut io = open_bcast(&t);
        for pkt in seqs(&mut io, 2) {
            io.carry(pkt);
        }
        drop(io);
        let mut io = open_bcast(&t);
        let first = seqs(&mut io, 1);
        assert_eq!(first[0].control_arg(), 1);
        io.carry(first[0]);
        drop(io);
        let mut io = open_bcast(&t);
        let all: Vec<u32> = seqs(&mut io, 3).iter().map(|p| p.control_arg()).collect();
        assert_eq!(all, [1, 2, 3]);
        assert!(io.try_recv_data().unwrap().is_none());
    }

    #[test]
    fn a_full_lane_keeps_only_its_own_frames() {
        let (lanes, rx) = two_lanes([1, 4]);
        lanes.lanes[0].try_send(vec![data(9)]).unwrap(); // lane 0 now full
        let mut io = coll_io(lanes);
        let mut window = vec![data(0)];
        io.stage_fanout(&mut window, &[1, 3]);
        assert!(!io.try_flush().unwrap());
        assert_eq!(frames(&rx[1]), [[(3, 0)]]);
        assert_eq!(frames(&rx[0]), [[(0, 9)]]);
        assert!(io.try_flush().unwrap());
        assert_eq!(frames(&rx[0]), [[(1, 0)]]);
        assert!(rx[1].is_empty());
    }

    #[test]
    fn take_put_cycle() {
        let t = new_table();
        t.lock().declare(0, OpKind::Send);
        t.lock().put_send(0, send_res());
        let res = t.lock().take_send(0).unwrap();
        assert!(matches!(
            t.lock().take_send(0),
            Err(SmiError::EndpointBusy { port: 0 })
        ));
        t.lock().put_send(0, res);
        assert!(t.lock().take_send(0).is_ok());
    }

    #[test]
    fn undeclared_port_is_missing_not_busy() {
        let t = new_table();
        assert!(matches!(
            t.lock().take_send(9),
            Err(SmiError::NoSuchEndpoint {
                port: 9,
                kind: "send"
            })
        ));
        assert!(matches!(
            t.lock().take_recv(9),
            Err(SmiError::NoSuchEndpoint { .. })
        ));
        assert!(matches!(
            t.lock().take_coll(9, OpKind::Bcast),
            Err(SmiError::NoSuchEndpoint { .. })
        ));
    }

    #[test]
    fn collective_kind_checked() {
        let t = new_table();
        t.lock().declare(1, OpKind::Bcast);
        assert!(matches!(
            t.lock().take_coll(1, OpKind::Reduce),
            Err(SmiError::NoSuchEndpoint { .. })
        ));
    }

    #[test]
    fn credit_ledger_clamps_tail_window() {
        let mut l = CreditLedger::new(4, 10);
        assert_eq!(l.granted(), 4); // implicit first window
        assert_eq!(l.window_grant(3), 0); // not a window boundary
        assert_eq!(l.window_grant(4), 4); // full interior window
        assert_eq!(l.window_grant(8), 2); // tail window: clamped to 10
        assert_eq!(l.window_grant(12), 0); // nothing left to grant
        assert_eq!(l.granted(), 10);
        // A count below one window never puts a grant on the wire.
        let mut s = CreditLedger::new(8, 3);
        assert_eq!(s.window_grant(8), 0);
        assert_eq!(s.granted(), 8);
    }

    #[test]
    fn packet_rx_unbatches_bursts() {
        use smi_wire::PacketOp;
        let (tx, rx) = bounded::<Burst>(4);
        let mut prx = PacketRx::new(rx, CopyMeter::default());
        let pkt = |d: u8| NetworkPacket::new(0, d, 0, PacketOp::Send);
        tx.send(vec![pkt(1).into(), pkt(2).into()]).unwrap();
        tx.send(vec![pkt(3).into()]).unwrap();
        assert_eq!(prx.try_recv_packet().unwrap().unwrap().header.dst, 1);
        assert_eq!(prx.try_recv_packet().unwrap().unwrap().header.dst, 2);
        assert_eq!(
            prx.recv_packet(
                std::time::Duration::from_secs(1),
                "t",
                &FabricHealth::default()
            )
            .unwrap()
            .header
            .dst,
            3
        );
        assert!(prx.try_recv_packet().unwrap().is_none());
        drop(tx);
        assert!(matches!(
            prx.try_recv_packet(),
            Err(SmiError::TransportClosed)
        ));
    }

    #[test]
    fn packet_rx_materializes_runs_for_packet_consumers() {
        use smi_wire::PacketOp;
        let (tx, rx) = bounded::<Burst>(4);
        let meter = CopyMeter::default();
        let mut prx = PacketRx::new(rx, meter.clone());
        let elems: Vec<i32> = (0..16).collect();
        let run = PacketRun::from_elems(0, 1, 0, PacketOp::Send, &elems);
        tx.send(vec![Frame::Run(run)]).unwrap();
        // 16 ints -> 7 + 7 + 2 packets, materialized lazily and metered.
        let mut got = Vec::new();
        while let Some(p) = prx.try_recv_packet().unwrap() {
            for i in 0..p.header.count as usize {
                got.push(p.read_elem::<i32>(i));
            }
        }
        assert_eq!(got, elems);
        assert_eq!(meter.count(), 3 * smi_wire::PAYLOAD_BYTES as u64);
    }

    #[test]
    fn packet_rx_delivers_runs_whole_to_frame_consumers() {
        use smi_wire::PacketOp;
        let (tx, rx) = bounded::<Burst>(4);
        let meter = CopyMeter::default();
        let mut prx = PacketRx::new(rx, meter.clone());
        let run = PacketRun::from_elems(0, 1, 0, PacketOp::Send, &[1.5f32; 20]);
        tx.send(vec![Frame::Run(run)]).unwrap();
        match prx.try_recv_frame().unwrap() {
            Some(Frame::Run(r)) => assert_eq!(r.elems(), 20),
            other => panic!("expected a whole run, got {other:?}"),
        }
        // A whole-run delivery copies no payload bytes.
        assert_eq!(meter.count(), 0);
    }
}
