//! Application-side endpoint resources.
//!
//! One SMI port corresponds to fixed hardware laid down at "compile time"
//! (here: at cluster startup, from the generated design). Every declared
//! `(port, kind)` is one `PortRes`, the same type for a point-to-point
//! end and a collective: lanes into the rank's CKSs, a data delivery half
//! (absent for a send, which receives no data) and the port's control
//! state (absent for a receive, which receives no control packet), where
//! the rank's CKRs count every `Sync` and credit grant. Opening a
//! transient channel *takes* the resource into a `PortIo`, the one I/O
//! handle every channel stages, flushes and receives through; dropping
//! the channel returns it, so a port can host any number of sequential
//! transient channels of one kind but never two concurrent ones. A port
//! with a send and a receive holds two resources, one per kind.
//!
//! All endpoint FIFOs move packet [`Burst`]s: bulk channel operations hand
//! over many packets per queue operation, and delivery halves are
//! [`PacketRx`]s that unbatch bursts back into a frame stream (buffered
//! state lives with the resource, so it survives channel reopen cycles).
//!
//! Every FIFO operation here is non-blocking. A blocking channel call spins
//! its non-blocking twin in `Stall::on`, the one wait loop of the
//! runtime.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use smi_codegen::{OpKind, OpSpec};
use smi_wire::{Datatype, Deframer, Frame, Header, NetworkPacket, PacketOp, ReduceOp};

use crate::transport::ck::PortCtl;
use crate::transport::executor::back_off;
use crate::transport::link::{LinkRecv, LinkRx, LinkSend, LinkTx};
use crate::transport::socket::FabricHealth;
use crate::transport::{meter_inline_data, readdressed, Burst, CopyMeter};
use crate::{RuntimeParams, SmiError};

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

/// Receive side of a delivery, unbatched back into a frame stream. The
/// pending queue holds the tail of the last burst, and ahead of it what a
/// closed channel held for the port's next open. A delivery is a
/// [`burst_queue`](crate::transport::link::burst_queue) the rank's CKRs
/// fill; its consumer is rank code and names no wake, so a push raises
/// nothing and costs no syscall.
///
/// [`PacketRx::next_frame`] hands [`Frame::Run`]s over whole — an `Arc`
/// handle move, no payload copy.
pub(crate) struct PacketRx {
    rx: LinkRx,
    pending: VecDeque<Frame>,
    meter: CopyMeter,
}

impl PacketRx {
    pub fn new(rx: LinkRx, meter: CopyMeter) -> Self {
        PacketRx {
            rx,
            pending: VecDeque::new(),
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

    /// Non-blocking frame receive: run frames are delivered whole (no
    /// payload copy) — the zero-copy consumer path. The pending queue is
    /// refilled from the delivery while it runs dry.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, SmiError> {
        loop {
            if let Some(f) = self.pending.pop_front() {
                return Ok(Some(f));
            }
            match self.rx.try_recv() {
                LinkRecv::Burst(b) => self.absorb(b),
                LinkRecv::Empty => return Ok(None),
                LinkRecv::Closed => return Err(SmiError::TransportClosed),
            }
        }
    }
}

/// An endpoint's send path: one FIFO (a *lane*) into every CKS of its rank,
/// in CK-pair order. A packet enters the lane of the CKS whose port its next
/// hop leaves by, so its first CK forward puts it on the link; a packet for
/// the endpoint's own rank enters the lane of the CKS it is bound to. Every
/// lane is a [`fifo`](crate::transport::link::fifo): each push raises that
/// kernel's wake handle.
///
/// A port with nothing to send has no lanes ([`CksLanes::default`]): a lone
/// receive on a single rank, which never has data to grant credit for.
#[derive(Default)]
pub(crate) struct CksLanes {
    pub lanes: Vec<LinkTx>,
    /// The rank's routing table: wire rank → CK pair of the next hop (past
    /// the last lane for the own rank). Shared with the rank's kernels.
    pub next_pair: Arc<Vec<usize>>,
    /// The CK pair the endpoint is bound to.
    pub bound: usize,
}

impl CksLanes {
    /// A single rank's loopback: one lane, which every packet takes.
    pub fn loopback(tx: LinkTx) -> Self {
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

/// A port's endpoint hardware, one per declared `(port, kind)` and the same
/// type for every kind: the lanes into the rank's CKSs, the data delivery
/// half the rank's CKRs write and the control state they count into. A
/// send has no data half, and an absent half reads as empty; a receive has
/// no control state.
pub(crate) struct PortRes {
    pub dtype: Datatype,
    /// The operator a reduce binding declares.
    pub reduce_op: Option<ReduceOp>,
    pub to_cks: CksLanes,
    /// Data deliveries.
    pub rx: Option<PacketRx>,
    /// `staged[lane]`: frames bound for that lane, in staging order. Kept
    /// with the resource, so opening a channel allocates nothing.
    staged: Vec<Burst>,
    /// The port's `Sync` tally and grant FIFO, and a bcast member's fan-out
    /// and readiness fold, shared with every CKR of the rank; every kind
    /// but a receive has one.
    pub ctl: Option<PortCtl>,
}

impl PortRes {
    /// The endpoint `op` declares, over `to_cks` and the data half `rx`.
    pub fn new(op: &OpSpec, to_cks: CksLanes, rx: Option<PacketRx>) -> Self {
        PortRes {
            dtype: op.dtype,
            reduce_op: op.reduce_op,
            staged: vec![Burst::new(); to_cks.lanes.len()],
            to_cks,
            rx,
            ctl: (op.kind != OpKind::Recv).then(PortCtl::default),
        }
    }
}

/// Poll-mode handle on a port's endpoint, the one I/O path of every
/// channel, point-to-point and collective: the [`PortRes`], whose staging
/// bursts (one per lane) hold outgoing packets (data, syncs, grants,
/// credits).
///
/// Every transmit goes through [`PortIo::stage`] + [`PortIo::try_flush`]:
/// a full lane leaves its burst staged instead of parking the calling
/// thread, which is what lets an in-progress open (or any channel
/// operation) run on an executor worker without blocking it. The channel
/// objects re-offer the staged bursts on every poll. Dropping the handle
/// offers what is still staged once and returns the resource to the table.
///
/// Tree-scheme collectives fan windows out to a *set of children* rather
/// than to the root's peers: [`PortIo::stage_fanout`] stages a packet
/// window once per child, grouped per destination, so each CKS sees long
/// same-route runs it can forward as whole bursts (`forward_runs`) instead
/// of per-packet splits.
pub(crate) struct PortIo {
    port: usize,
    kind: OpKind,
    res: Option<PortRes>,
    table: EndpointTableHandle,
    stall: Stall,
    max_burst: usize,
    copies: CopyMeter,
    /// Frames read for the port's next open, in arrival order.
    hold: Vec<Frame>,
}

/// Outcome of one iteration of a [`Stall::on`] step.
pub(crate) enum BlockingStep<T> {
    /// The operation completed with this value.
    Ready(T),
    /// Moved data this iteration; keep polling with a fresh stall deadline.
    Progress,
    /// Nothing to do until the transport accepts or supplies data.
    Pending,
}

/// The bounds every blocking call on a port waits under: the runtime's
/// stall bound, its overall deadline (collective calls only) and the
/// fabric-health board.
#[derive(Debug, Clone)]
pub(crate) struct Stall {
    timeout: Duration,
    deadline: Option<Duration>,
    health: FabricHealth,
}

impl Stall {
    /// The fabric-health board: a try path that makes no headway fails fast
    /// on a recorded peer death.
    pub fn health(&self) -> &FabricHealth {
        &self.health
    }

    /// Spin a non-blocking `step` on the calling thread until it reports
    /// [`BlockingStep::Ready`] — the one loop through which every blocking
    /// channel call, point-to-point and collective, runs its non-blocking
    /// twin; no rank thread waits on a transport FIFO.
    ///
    /// The stall bound is not a bound on the whole call: every
    /// [`BlockingStep::Progress`] resets it, and so does a socket reconnect
    /// in flight (the call outlives the repair instead of misreporting it;
    /// reconnects are budget-bounded, so a failed one still ends the wait).
    /// The overall deadline, fixed when the call starts, holds regardless
    /// of progress: a peer trickling one packet per poll would otherwise
    /// extend the call indefinitely ([`SmiError::DeadlineExceeded`]). A
    /// stall a dead peer explains ends as that peer's error. The backoff
    /// mirrors the executor worker loop — spin briefly, then yield, then
    /// nap ([`back_off`]) — so a rank thread spinning here cannot starve the
    /// workers that move its packets.
    pub fn on<R>(
        self,
        waiting_for: &'static str,
        mut step: impl FnMut() -> Result<BlockingStep<R>, SmiError>,
    ) -> Result<R, SmiError> {
        let overall = self.deadline.map(|d| Instant::now() + d);
        let mut stall_end = Instant::now() + self.timeout;
        let mut idle = 0u32;
        let err = loop {
            let pending = match step() {
                Ok(BlockingStep::Ready(v)) => return Ok(v),
                Ok(BlockingStep::Progress) => false,
                Ok(BlockingStep::Pending) => true,
                Err(e) => break e,
            };
            let now = Instant::now();
            if overall.is_some_and(|d| now >= d) {
                break SmiError::DeadlineExceeded { waiting_for };
            }
            if !pending {
                (stall_end, idle) = (now + self.timeout, 0);
                continue;
            }
            if now >= stall_end {
                if !self.health.any_reconnecting() {
                    break SmiError::Timeout { waiting_for };
                }
                stall_end = now + self.timeout;
            }
            idle += 1;
            back_off(idle);
        };
        Err(self.health.escalate(err))
    }
}

impl PortIo {
    /// Take the `kind` resource of `port`, checking the datatype. Timing and
    /// burst limits come from the runtime configuration; the overall
    /// deadline binds collective calls only.
    pub fn open(
        table: EndpointTableHandle,
        port: usize,
        kind: OpKind,
        dtype: Datatype,
        params: &RuntimeParams,
    ) -> Result<Self, SmiError> {
        let deadline = params.blocking_deadline.filter(|_| kind.is_collective());
        let (res, (stall, copies)) = {
            let mut t = table.lock();
            let stall = t.blocking(params.blocking_timeout, deadline);
            (t.take(port, kind, dtype)?, stall)
        };
        Ok(PortIo {
            port,
            kind,
            res: Some(res),
            table,
            stall,
            max_burst: params.burst_packets.max(1),
            copies,
            hold: Vec::new(),
        })
    }

    fn res(&self) -> &PortRes {
        self.res.as_ref().expect("resource held while open")
    }

    fn res_mut(&mut self) -> &mut PortRes {
        self.res.as_mut().expect("resource held while open")
    }

    /// The reduce operator declared for this port (reduce bindings only).
    pub fn reduce_op(&self) -> Option<ReduceOp> {
        self.res().reduce_op
    }

    /// What a blocking call on this port waits under ([`Stall::on`]).
    pub fn wait(&self) -> Stall {
        self.stall.clone()
    }

    /// The configured burst size (packets per transport handover).
    pub fn max_burst(&self) -> usize {
        self.max_burst
    }

    /// The rank's payload-copy meter: channels charge their own framing,
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
        let res = self.res_mut();
        let lane = res.to_cks.lane(frame.header().dst);
        res.staged[lane].push(frame);
    }

    /// Stage a frame window once per destination in `dsts` (wire ranks),
    /// grouped per child: all of child 0's copies, then child 1's, … so
    /// mixed parent/child bursts reach each CKS as maximal same-route runs.
    /// Inline packets are duplicated per child (a metered payload copy
    /// each); run frames are re-addressed `Arc` clones — no payload moves,
    /// which is what makes tree fan-out zero-copy. The window is drained.
    pub fn stage_fanout(&mut self, window: &mut Vec<Frame>, dsts: &[u8]) {
        let res = self.res.as_mut().expect("resource held while open");
        for &dst in dsts {
            let copies = window.iter().map(|f| readdressed(f, dst, &self.copies));
            res.staged[res.to_cks.lane(dst)].extend(copies);
        }
        window.clear();
    }

    /// This port's control state ([`PortCtl`]; every kind but a receive).
    pub fn ctl(&self) -> &PortCtl {
        self.res().ctl.as_ref().expect("a port with control state")
    }

    /// Arm this port's control state for a bcast member with these hop-tree
    /// `children`, claiming their `Sync`s tallied so far. A non-root member
    /// also names `up`, its own announcement: from here until the handle
    /// drops, every CKR of the rank copies the port's `Bcast` data frames
    /// to the children, and whoever claims the last child's `Sync` — this
    /// open or a CKR — sends `up`. With no child left to wait for, `up` is
    /// staged at once.
    pub fn arm(&mut self, children: &[u8], up: Option<NetworkPacket>) {
        let res = self.res();
        let lane = |dst: u8| res.to_cks.lane(dst);
        let copies = match up {
            Some(_) => children.iter().map(|&c| (c, lane(c))).collect(),
            None => Default::default(),
        };
        let up = up.map(|up| (up, lane(up.header.dst)));
        if let Some(up) = self.ctl().arm(copies, children, up) {
            self.stage(up);
        }
    }

    /// Whether the staged bursts reached the configured burst size between
    /// them and should be offered to the transport. Counts wire packets, not
    /// frames, so a staged run the size of a burst flushes like a full
    /// packet burst.
    pub fn stage_full(&self) -> bool {
        let frames = self.res().staged.iter().flatten();
        frames.map(|f| f.packet_count()).sum::<usize>() >= self.max_burst
    }

    /// Whether nothing is staged.
    pub fn flushed(&self) -> bool {
        self.res().staged.iter().all(Vec::is_empty)
    }

    /// Offer every non-empty staged burst to its lane without blocking.
    /// `Ok(true)` when nothing remains staged; `Ok(false)` when a lane was
    /// full and kept its own burst for the next poll (the others moved).
    pub fn try_flush(&mut self) -> Result<bool, SmiError> {
        let res = self.res_mut();
        let mut flushed = true;
        for (lane, staged) in res.to_cks.lanes.iter_mut().zip(&mut res.staged) {
            if staged.is_empty() {
                continue;
            }
            match lane.offer(std::mem::take(staged)) {
                LinkSend::Accepted => {}
                LinkSend::Full(b) => {
                    *staged = b;
                    flushed = false;
                }
                LinkSend::Closed => return Err(SmiError::TransportClosed),
            }
        }
        Ok(flushed)
    }

    /// Offer one packet to its lane now, past the staging bursts: `Ok(false)`
    /// when the lane is full or still holds staged frames (those go first).
    /// A refused packet is not kept; the caller offers it again, possibly
    /// changed (a receiver's credit grant grows while it waits).
    pub fn try_send(&mut self, pkt: NetworkPacket) -> Result<bool, SmiError> {
        let res = self.res_mut();
        let lane = res.to_cks.lane(pkt.header.dst);
        if !res.staged[lane].is_empty() {
            return Ok(false);
        }
        match res.to_cks.lanes[lane].offer(vec![pkt.into()]) {
            LinkSend::Accepted => Ok(true),
            LinkSend::Full(_) => Ok(false),
            LinkSend::Closed => Err(SmiError::TransportClosed),
        }
    }

    /// The recorded death of a peer process, if any.
    pub fn peer_error(&self) -> Option<SmiError> {
        self.stall.health().error()
    }

    /// A receive's or a grant claim's outcome. A collective fails fast once
    /// its path ran empty *and* a peer process has died — it spans every
    /// member, so waiting out the stall could only end in a timeout anyway.
    /// A point-to-point channel fails only a call that moved nothing
    /// ([`PortIo::peer_error`]).
    fn delivered<F>(&self, got: Option<F>) -> Result<Option<F>, SmiError> {
        match (got, self.kind.is_collective()) {
            (None, true) => self.peer_error().map_or(Ok(None), Err),
            (got, _) => Ok(got),
        }
    }

    /// Non-blocking frame receive from the data delivery path: run frames
    /// arrive whole (no payload copy).
    pub fn try_recv_data_frame(&mut self) -> Result<Option<Frame>, SmiError> {
        let rx = &mut self.res_mut().rx;
        let got = rx.as_mut().map_or(Ok(None), PacketRx::next_frame)?;
        self.delivered(got)
    }

    /// Keep a received frame for the port's next open: it belongs to a
    /// later message than this channel's (a reduce contribution past its
    /// sender's count). The frames go back to the front of the delivery
    /// when the handle drops.
    pub fn hold(&mut self, frame: Frame) {
        self.hold.push(frame);
    }

    /// Claim up to `most` credit grants the rank's CKRs counted, oldest
    /// first, summed: `None` when none is queued.
    pub fn claim_grants(&self, most: usize) -> Result<Option<u64>, SmiError> {
        let mut ctl = self.ctl().lock();
        let n = most.min(ctl.grants.len());
        let got = (n > 0).then(|| ctl.grants.drain(..n).map(u64::from).sum());
        drop(ctl);
        self.delivered(got)
    }

    /// Check (debug builds) that a channel that `completed` its message
    /// claimed every grant counted for its port: a correct granter's total
    /// is exactly what the message needed beyond its first window.
    pub fn check_grants_claimed(&self, completed: bool) {
        let claimed = || self.ctl().lock().grants.is_empty();
        debug_assert!(
            !completed || claimed(),
            "a completed channel left grants unclaimed"
        );
    }
}

impl Drop for PortIo {
    fn drop(&mut self) {
        if let Some(mut res) = self.res.take() {
            // Best-effort handover of anything still staged: Drop may run
            // on an executor worker, so blocking here would wedge the
            // thread that drains the FIFO.
            for (lane, staged) in res.to_cks.lanes.iter_mut().zip(&mut res.staged) {
                if !staged.is_empty() {
                    let _ = lane.offer(std::mem::take(staged));
                }
            }
            if let Some(ctl) = &res.ctl {
                ctl.disarm();
            }
            // What this channel held arrived before what it never read.
            if let Some(rx) = &mut res.rx {
                for frame in self.hold.drain(..).rev() {
                    rx.pending.push_front(frame);
                }
            }
            self.table.lock().put(self.port, self.kind, res);
        }
    }
}

/// The per-rank endpoint table, shared between the context and the channel
/// objects (which return their resource on drop).
#[derive(Default)]
pub(crate) struct EndpointTable {
    /// Every declared endpoint, keyed by `(port, kind)`; `None` while a
    /// channel holds it.
    ports: HashMap<(usize, OpKind), Option<PortRes>>,
    /// Fabric-wide peer-liveness board (set by the wiring; the default
    /// never reports down). Channels clone it at open so a dead peer
    /// process surfaces as [`SmiError::PeerDisconnected`] instead of a
    /// generic timeout.
    health: FabricHealth,
    /// Payload-plane copy meter (set by the wiring; shared with every
    /// [`PacketRx`] of the rank). Channels clone it at open to account
    /// their own staging copies.
    copies: CopyMeter,
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

    /// Take the `kind` resource of `port` if it is free and was declared
    /// for `dtype`; a mismatch leaves it in place.
    pub fn take(
        &mut self,
        port: usize,
        kind: OpKind,
        dtype: Datatype,
    ) -> Result<PortRes, SmiError> {
        let Some(slot) = self.ports.get_mut(&(port, kind)) else {
            let kind = match kind {
                OpKind::Send => "send",
                OpKind::Recv => "recv",
                _ => "collective",
            };
            return Err(SmiError::NoSuchEndpoint { port, kind });
        };
        match slot.as_ref().map(|r| r.dtype) {
            None => Err(SmiError::EndpointBusy { port }),
            Some(declared) if declared != dtype => Err(SmiError::TypeMismatch {
                declared,
                requested: dtype,
            }),
            Some(_) => Ok(slot.take().expect("checked free")),
        }
    }

    /// Declare the `kind` endpoint of `port` (wiring), or return it (channel
    /// drop).
    pub fn put(&mut self, port: usize, kind: OpKind, res: PortRes) {
        self.ports.insert((port, kind), Some(res));
    }

    /// What a channel opened on this table waits under — the stall bound
    /// `timeout`, the overall `deadline` per call (collectives only) and the
    /// fabric-health board — and the rank's payload-copy meter it charges.
    pub fn blocking(&self, timeout: Duration, deadline: Option<Duration>) -> (Stall, CopyMeter) {
        let health = self.health.clone();
        let stall = Stall {
            timeout,
            deadline,
            health,
        };
        (stall, self.copies.clone())
    }
}

/// Build a shared handle.
pub(crate) fn new_table() -> EndpointTableHandle {
    Arc::new(Mutex::new(EndpointTable::default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::link::tests::accept;
    use crate::transport::link::{burst_queue, QueueTx};
    use crossbeam::channel::bounded;

    /// Lanes of rank 2 of five over two CK pairs: ranks 0 and 1 are reached
    /// through pair 0, ranks 3 and 4 through pair 1; bound to pair 1.
    fn two_lanes(caps: [usize; 2]) -> (CksLanes, [crossbeam::channel::Receiver<Burst>; 2]) {
        let ((tx0, rx0), (tx1, rx1)) = (bounded(caps[0]), bounded(caps[1]));
        let lanes = CksLanes {
            lanes: vec![Box::new(tx0), Box::new(tx1)],
            next_pair: Arc::new(vec![0, 0, 2, 1, 1]),
            bound: 1,
        };
        (lanes, [rx0, rx1])
    }

    /// A table declaring `op` on port 0 over `lanes`, fed by `data_rx`.
    fn coll_table(op: OpSpec, lanes: CksLanes, data_rx: LinkRx) -> EndpointTableHandle {
        let rx = PacketRx::new(data_rx, CopyMeter::default());
        let t = new_table();
        t.lock().put(0, op.kind, PortRes::new(&op, lanes, Some(rx)));
        t
    }

    fn open_coll(t: &EndpointTableHandle, kind: OpKind) -> PortIo {
        let params = crate::params::RuntimeParams::default();
        PortIo::open(t.clone(), 0, kind, Datatype::Int, &params).unwrap()
    }

    /// A bcast `PortIo` on port 0 over `lanes`.
    fn coll_io(lanes: CksLanes) -> PortIo {
        let (_data_tx, data_rx) = burst_queue(1);
        let op = OpSpec::bcast(0, Datatype::Int);
        open_coll(&coll_table(op, lanes, data_rx), OpKind::Bcast)
    }

    /// A packet from rank 2 tagged with `seq`.
    fn data(seq: u32) -> Frame {
        NetworkPacket::control(2, 0, 0, smi_wire::PacketOp::Sync, seq).into()
    }

    /// Push `burst` into a delivery that has room for it.
    fn deliver(tx: &QueueTx, burst: Burst) {
        assert!(matches!(tx.push(burst), LinkSend::Accepted));
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
        let loopback = CksLanes::loopback(Box::new(tx));
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

    /// What a reduce channel holds goes to the port's next open first,
    /// ahead of what it never read, in arrival order — also when that open
    /// holds some of it again.
    #[test]
    fn carried_packets_reach_the_next_open_first_in_order() {
        let (lanes, _rx) = two_lanes([1, 1]);
        let (data_tx, data_rx) = burst_queue(1);
        deliver(&data_tx, vec![data(1), data(2), data(3)]);
        let op = OpSpec::reduce(0, Datatype::Int, ReduceOp::Add);
        let t = coll_table(op, lanes, data_rx);
        let seqs = |io: &mut PortIo, n: usize| {
            let mut next = || io.try_recv_data_frame().unwrap().expect("a frame");
            (0..n).map(|_| next()).collect::<Vec<_>>()
        };
        let seq = |f: &Frame| match f {
            Frame::Pkt(p) => p.control_arg(),
            Frame::Run(_) => panic!("unexpected run"),
        };
        let mut io = open_coll(&t, OpKind::Reduce);
        for frame in seqs(&mut io, 2) {
            io.hold(frame);
        }
        drop(io);
        let mut io = open_coll(&t, OpKind::Reduce);
        let first = seqs(&mut io, 1).pop().unwrap();
        assert_eq!(seq(&first), 1);
        io.hold(first);
        drop(io);
        let mut io = open_coll(&t, OpKind::Reduce);
        let all: Vec<u32> = seqs(&mut io, 3).iter().map(seq).collect();
        assert_eq!(all, [1, 2, 3]);
        assert!(io.try_recv_data_frame().unwrap().is_none());
    }

    #[test]
    fn a_full_lane_keeps_only_its_own_frames() {
        let (mut lanes, rx) = two_lanes([1, 4]);
        accept(&mut lanes.lanes[0], vec![data(9)]); // lane 0 now full
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

    /// A grant claim takes the oldest grants first: one at a time for a
    /// p2p sender, every queued one for a reduce member.
    #[test]
    fn grants_are_claimed_oldest_first() {
        let t = table_of(&[OpSpec::send(0, Datatype::Int)]);
        let params = crate::params::RuntimeParams::default();
        let io = PortIo::open(t, 0, OpKind::Send, Datatype::Int, &params).unwrap();
        io.ctl().lock().grants.extend([5, 7, 9]);
        assert_eq!(io.claim_grants(1).unwrap(), Some(5));
        assert_eq!(io.claim_grants(usize::MAX).unwrap(), Some(16));
        assert_eq!(io.claim_grants(1).unwrap(), None);
    }

    /// A table declaring every op of `ops`, with no lanes or halves.
    fn table_of(ops: &[OpSpec]) -> EndpointTableHandle {
        let t = new_table();
        for op in ops {
            let res = PortRes::new(op, CksLanes::default(), None);
            t.lock().put(op.port, op.kind, res);
        }
        t
    }

    /// One resource per `(port, kind)`: port 0 holds a send and a receive,
    /// and holding one leaves the other free.
    #[test]
    fn take_put_cycle() {
        use Datatype::Int;
        let t = table_of(&[OpSpec::send(0, Int), OpSpec::recv(0, Int)]);
        let take = |kind| t.lock().take(0, kind, Int);
        assert!(matches!(
            t.lock().take(0, OpKind::Send, Datatype::Float),
            Err(SmiError::TypeMismatch { .. })
        ));
        let send = take(OpKind::Send).unwrap();
        assert!(matches!(
            take(OpKind::Send),
            Err(SmiError::EndpointBusy { port: 0 })
        ));
        let recv = take(OpKind::Recv).unwrap();
        assert!(matches!(
            take(OpKind::Recv),
            Err(SmiError::EndpointBusy { port: 0 })
        ));
        t.lock().put(0, OpKind::Send, send);
        assert!(take(OpKind::Send).is_ok());
        t.lock().put(0, OpKind::Recv, recv);
        assert!(take(OpKind::Recv).is_ok());
    }

    #[test]
    fn undeclared_port_is_missing_not_busy() {
        let t = new_table();
        for (kind, name) in [
            (OpKind::Send, "send"),
            (OpKind::Recv, "recv"),
            (OpKind::Bcast, "collective"),
        ] {
            let missing = t.lock().take(9, kind, Datatype::Int);
            assert!(
                matches!(missing, Err(SmiError::NoSuchEndpoint { port: 9, kind: k }) if k == name),
                "{kind:?}: {:?}",
                missing.err()
            );
        }
    }

    #[test]
    fn collective_kind_checked() {
        let t = table_of(&[OpSpec::bcast(1, Datatype::Int)]);
        assert!(matches!(
            t.lock().take(1, OpKind::Reduce, Datatype::Int),
            Err(SmiError::NoSuchEndpoint { .. })
        ));
        assert!(t.lock().take(1, OpKind::Bcast, Datatype::Int).is_ok());
    }

    fn stall(timeout_ms: u64, deadline_ms: Option<u64>) -> Stall {
        Stall {
            timeout: Duration::from_millis(timeout_ms),
            deadline: deadline_ms.map(Duration::from_millis),
            health: FabricHealth::default(),
        }
    }

    #[test]
    fn stall_completes_and_times_out() {
        let mut n = 0;
        let got = stall(1000, None).on("t", || {
            n += 1;
            Ok(if n == 3 {
                BlockingStep::Ready(42)
            } else {
                BlockingStep::Progress
            })
        });
        assert_eq!(got.unwrap(), 42);
        let err = stall(10, None).on::<()>("never", || Ok(BlockingStep::Pending));
        assert!(matches!(err, Err(SmiError::Timeout { .. })));
    }

    #[test]
    fn overall_deadline_bounds_trickling_progress() {
        // A step reporting Progress forever keeps resetting the stall bound;
        // only the overall deadline can end it.
        let start = Instant::now();
        let err = stall(10_000, Some(50)).on::<()>("trickle", || {
            std::thread::sleep(Duration::from_millis(1));
            Ok(BlockingStep::Progress)
        });
        assert!(matches!(err, Err(SmiError::DeadlineExceeded { .. })));
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    /// A stall that a recorded peer death explains ends as that death.
    #[test]
    fn a_stall_a_dead_peer_explains_ends_as_its_error() {
        use crate::transport::socket::{PeerDown, PeerDownKind, PeerInfo};
        let s = stall(10, None);
        s.health().mark_down(PeerDown {
            peer: PeerInfo {
                rank: 3,
                process: 1,
                backend: "uds",
                addr: String::new(),
            },
            detail: String::new(),
            kind: PeerDownKind::Link,
        });
        let err = s.on::<()>("never", || Ok(BlockingStep::Pending));
        assert!(matches!(err, Err(SmiError::PeerDisconnected { rank: 3 })));
    }

    #[test]
    fn packet_rx_unbatches_bursts() {
        use smi_wire::PacketOp;
        let (tx, rx) = burst_queue(4);
        let mut prx = PacketRx::new(rx, CopyMeter::default());
        let pkt = |d: u8| NetworkPacket::new(0, d, 0, PacketOp::Send);
        deliver(&tx, vec![pkt(1).into(), pkt(2).into()]);
        deliver(&tx, vec![pkt(3).into()]);
        let mut dst = || prx.next_frame().unwrap().map(|f| f.header().dst);
        assert_eq!(
            [dst(), dst(), dst(), dst()],
            [Some(1), Some(2), Some(3), None]
        );
        drop(tx);
        assert!(matches!(prx.next_frame(), Err(SmiError::TransportClosed)));
    }

    #[test]
    fn packet_rx_delivers_runs_whole_to_frame_consumers() {
        use smi_wire::{PacketOp, PacketRun};
        let (tx, rx) = burst_queue(4);
        let meter = CopyMeter::default();
        let mut prx = PacketRx::new(rx, meter.clone());
        let run = PacketRun::from_elems(0, 1, 0, PacketOp::Send, &[1.5f32; 20]);
        deliver(&tx, vec![Frame::Run(run)]);
        match prx.next_frame().unwrap() {
            Some(Frame::Run(r)) => assert_eq!(r.elems(), 20),
            other => panic!("expected a whole run, got {other:?}"),
        }
        // A whole-run delivery copies no payload bytes.
        assert_eq!(meter.count(), 0);
    }
}
