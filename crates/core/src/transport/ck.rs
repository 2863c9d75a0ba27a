//! The CK state machine: the §4.3 CKS/CKR loop as a cooperative,
//! burst-granular poller.
//!
//! Like the hardware kernels, a machine owns a set of input links, a routing
//! function, and a set of output links; it polls inputs round-robin, reading
//! up to `R` bursts from one input while data is available, and forwards
//! with backpressure (a full output stalls the head burst — order within an
//! input is never reordered). Unlike the previous implementation it never
//! blocks: when an output is full the machine parks the burst and reports
//! [`Step::Idle`], letting the executor worker drive its other machines.
//! With nothing parked, `Idle` means asleep: every producer into an input
//! raises the machine's [`Wake`] after its push, and the executor does not
//! poll it again before that. So does `Drained`, a poll that moved data and
//! then read every live input empty, no streak cut short by the persistence
//! `R`.
//!
//! Machines are engine-agnostic: inputs and outputs are
//! [`super::link::Transport`]/[`super::link::TransportReceiver`] trait objects
//! ([`crate::transport::link`]), so the same state machine drives in-memory
//! FIFO edges and socket edges that cross a process boundary.
//!
//! Routing is header-only: a [`Frame::Run`] spanning many packets is routed
//! once and forwarded as a single refcounted view — the zero-copy payload
//! plane's fast path through the fabric.
//!
//! One verdict writes more than one output: [`Route::Multicast`], which a
//! CKR gives a tree-bcast frame for an interior member of its rank. The
//! frame goes to each child's output as a re-addressed copy, then to the
//! local delivery. Parked bursts wait in an in-order queue whose head alone
//! is offered, so within each output frames and copies leave in arrival
//! order and a local delivery never passes its copies. A machine's
//! `forwards` counts kernel crossings — one per packet it routes, whatever
//! the fan-out.
//!
//! [`Route::Count`] is the verdict on every control packet — a ready-`Sync`,
//! a grant or a credit — for any port but a receive: the CKR counts it into
//! the port's [`PortCtl`] (one forward, as delivering it was), and no
//! control packet reaches a delivery.
//! A credit joins the port's grant FIFO. A `Sync` from a child an armed
//! bcast member waits for is claimed at once, and the CKR that claims the
//! last child sends the member's own announcement onto the link toward its
//! parent — parked in order and, like a copy, no forward. Any other `Sync`
//! is tallied per sender for a later open to claim. So readiness and
//! credits stay in the kernels, as in the paper's support kernels (§4.4),
//! and no rank task reads a control packet.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use smi_wire::{Frame, Header, NetworkPacket, PacketOp};

use crate::transport::executor::{Pollable, Step, Wake};
use crate::transport::link::{LinkRecv, LinkRx, LinkSend, LinkTx, Transport};
use crate::transport::{readdressed, Burst, Copies, CopyMeter};

/// Routing verdict for one frame.
#[derive(PartialEq)]
pub(crate) enum Route {
    /// Forward into output `i` of the machine's output list.
    Output(usize),
    /// Multicast a tree-bcast frame at an interior member: a copy
    /// re-addressed to each `(child, output)` in turn, then the frame itself
    /// into output `local`, the member's own delivery.
    Multicast { copies: Copies, local: usize },
    /// Count a `Sync` or a credit into its port's control state.
    Count(PortCtl),
    /// No route — count as unroutable and drop (always a wiring bug).
    Drop,
}

/// A port's control state, shared by its endpoint and every CKR of its
/// rank: the `Sync`s and credit grants counted and not yet claimed, and
/// while a bcast member holds the port its fan-out, the children it still
/// waits for and its own announcement. Every kind but a receive has one.
/// A bcast endpoint arms it at open, before its own announcement can
/// leave, and dropping the channel disarms it; the counts outlive both.
#[derive(Clone, Default)]
pub(crate) struct PortCtl(Arc<Mutex<CtlState>>);

impl PartialEq for PortCtl {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// What a [`PortCtl`] holds.
#[derive(Default)]
pub(crate) struct CtlState {
    /// `tally[src]`: `Sync`s from wire rank `src` not yet claimed.
    tally: Vec<u32>,
    /// Credit grants not yet claimed, oldest first, in elements each.
    pub grants: VecDeque<u32>,
    /// `(child, CK pair of its next hop)` per hop-tree child.
    copies: Copies,
    /// Children whose `Sync` the armed member still waits for.
    wait: Vec<u8>,
    /// The member's own ready-`Sync` and the CK pair its next hop leaves
    /// by, taken by whoever claims the last child.
    up: Option<(NetworkPacket, usize)>,
}

impl CtlState {
    /// Claim one tallied `Sync` from `src`, if there is one.
    pub fn claim(&mut self, src: u8) -> bool {
        match self.tally.get_mut(usize::from(src)) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        }
    }
}

impl PortCtl {
    /// Hold the state: whatever is claimed under one hold, no CKR claims.
    pub fn lock(&self) -> MutexGuard<'_, CtlState> {
        self.0.lock()
    }

    /// Arm a bcast member with its fan-out `copies`, waiting for the
    /// `Sync`s of `children` (a tallied one is claimed here): `up`, the
    /// member's own announcement, goes to whoever claims the last child.
    /// With no child left to wait for, `up` comes back at once.
    pub fn arm(
        &self,
        copies: Copies,
        children: &[u8],
        up: Option<(NetworkPacket, usize)>,
    ) -> Option<NetworkPacket> {
        let mut state = self.lock();
        let mut wait = children.to_vec();
        wait.retain(|&child| !state.claim(child));
        (state.copies, state.wait) = (copies, wait);
        if state.wait.is_empty() {
            return up.map(|(up, _)| up);
        }
        state.up = up;
        None
    }

    /// How many children the armed member still waits for.
    pub fn awaited(&self) -> usize {
        self.lock().wait.len()
    }

    /// Clear the fan-out, the wait and the announcement; the tally stays.
    pub fn disarm(&self) {
        let mut state = self.lock();
        (state.copies, state.up) = (Copies::default(), None);
        state.wait.clear();
    }

    /// Count a burst of control frames under one hold. A credit joins the
    /// grant FIFO. A `Sync` from an awaited child is claimed at once, and
    /// the last returns the member's announcement; any other `Sync` is
    /// tallied.
    pub fn count(&self, burst: &[Frame]) -> Option<(NetworkPacket, usize)> {
        let (mut guard, mut up) = (self.lock(), None);
        let state = &mut *guard;
        for frame in burst {
            let src = frame.header().src;
            if frame.header().op == PacketOp::Credit {
                state.grants.push_back(match frame {
                    Frame::Pkt(p) => p.control_arg(),
                    Frame::Run(r) => r.packet(0).control_arg(),
                });
            } else if let Some(at) = state.wait.iter().position(|&c| c == src) {
                state.wait.swap_remove(at);
                up = up.or(state.up.take_if(|_| state.wait.is_empty()));
            } else {
                let at = usize::from(src);
                if state.tally.len() <= at {
                    state.tally.resize(at + 1, 0);
                }
                state.tally[at] += 1;
            }
        }
        up
    }

    /// The verdict on a bcast data frame a CKR delivers to output `local`:
    /// a multicast while a member's fan-out is armed.
    pub fn fan_out(&self, local: usize) -> Route {
        match &self.lock().copies {
            copies if copies.is_empty() => Route::Output(local),
            copies => Route::Multicast {
                copies: copies.clone(),
                local,
            },
        }
    }
}

/// A single rank's grant loop: a receive's lane counts its grants straight
/// into the send port's state, as a CKR would, and never fills.
impl Transport for PortCtl {
    fn offer(&mut self, burst: Burst) -> LinkSend {
        self.count(&burst);
        LinkSend::Accepted
    }

    fn share(&self) -> LinkTx {
        Box::new(self.clone())
    }
}

/// A CKS or CKR kernel body in poll mode.
pub(crate) struct CkMachine {
    /// The rank this kernel belongs to ([`Pollable::home_rank`]).
    pub rank: usize,
    pub inputs: Vec<LinkRx>,
    pub outputs: Vec<LinkTx>,
    /// Frame header → output index.
    pub route: Box<dyn Fn(&Header) -> Route + Send>,
    /// Polling persistence `R` (bursts drained from one input before
    /// rotating).
    pub persistence: u32,
    /// Maximum packets grouped into one forwarded burst.
    pub max_burst: usize,
    /// Kernel crossings: incremented once per packet this kernel routes (a
    /// run counts its packet span), whatever a multicast's fan-out — the
    /// copies are not crossings of their own.
    pub forwards: Arc<AtomicU64>,
    /// Incremented per dropped packet.
    pub unroutable: Arc<AtomicU64>,
    /// Charged for the inline data packets a multicast copies (the rank's
    /// payload-copy meter).
    copies: CopyMeter,
    // --- runtime state ---
    /// Raised by whoever fills or closes an input (the wiring hands every
    /// such producer a clone); this kernel sleeps on it.
    wake: Wake,
    dead: Vec<bool>,
    current: usize,
    /// Routed bursts not yet accepted, in routing order, each with the
    /// packets it counts as forwards: only the head is offered, so nothing
    /// passes a refused burst — a multicast's local delivery never passes
    /// its copies. Retried before anything else.
    parked: VecDeque<(usize, Burst, u64)>,
    /// Received frames not yet routed (mixed-route bursts).
    stash: VecDeque<Frame>,
}

impl CkMachine {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        rank: usize,
        wake: Wake,
        inputs: Vec<LinkRx>,
        outputs: Vec<LinkTx>,
        route: Box<dyn Fn(&Header) -> Route + Send>,
        persistence: u32,
        max_burst: usize,
        forwards: Arc<AtomicU64>,
        unroutable: Arc<AtomicU64>,
        copies: CopyMeter,
    ) -> Self {
        let n = inputs.len();
        CkMachine {
            rank,
            inputs,
            outputs,
            route,
            persistence: persistence.max(1),
            max_burst: max_burst.max(1),
            forwards,
            unroutable,
            copies,
            wake,
            dead: vec![false; n],
            current: 0,
            parked: VecDeque::new(),
            stash: VecDeque::new(),
        }
    }

    /// Offer a routed burst to output `idx` now, counting `counted` forwards
    /// once accepted; a full output hands it back.
    fn push(
        &mut self,
        idx: usize,
        burst: Burst,
        counted: u64,
        progressed: &mut bool,
    ) -> Option<Burst> {
        match self.outputs[idx].offer(burst) {
            LinkSend::Accepted => {
                if counted > 0 {
                    self.forwards.fetch_add(counted, Ordering::Relaxed);
                }
                *progressed = true;
                None
            }
            LinkSend::Full(b) => {
                // Room in an output raises nothing: stay runnable.
                self.wake.hold();
                Some(b)
            }
            LinkSend::Closed => {
                // Receiver gone: shutdown or a dead peer (reported through
                // the fabric health board); treat the burst as drained.
                *progressed = true;
                None
            }
        }
    }

    /// Hand a routed burst to output `idx` behind anything parked; a refused
    /// burst parks. Returns false when the machine is now blocked.
    fn offer(&mut self, idx: usize, burst: Burst, counted: u64, progressed: &mut bool) -> bool {
        let refused = if self.parked.is_empty() {
            self.push(idx, burst, counted, progressed)
        } else {
            Some(burst)
        };
        let Some(b) = refused else {
            return true;
        };
        self.parked.push_back((idx, b, counted));
        false
    }

    /// Send one run of same-verdict frames on its way. Returns false when
    /// the machine is now blocked.
    fn dispatch(&mut self, route: Route, burst: Burst, progressed: &mut bool) -> bool {
        let packets: u64 = burst.iter().map(|f| f.packet_count() as u64).sum();
        match route {
            Route::Output(idx) => self.offer(idx, burst, packets, progressed),
            Route::Multicast { copies, local } => {
                for &(dst, idx) in copies.iter() {
                    let copy = burst.iter().map(|f| readdressed(f, dst, &self.copies));
                    self.offer(idx, copy.collect(), 0, progressed);
                }
                self.offer(local, burst, packets, progressed)
            }
            Route::Count(ctl) => {
                let up = ctl.count(&burst);
                self.forwards.fetch_add(packets, Ordering::Relaxed);
                *progressed = true;
                match up {
                    Some((up, link)) => self.offer(link, vec![up.into()], 0, progressed),
                    None => true,
                }
            }
            Route::Drop => {
                self.unroutable.fetch_add(packets, Ordering::Relaxed);
                *progressed = true;
                true
            }
        }
    }

    /// The verdict on the first of `frames` and how many leading frames
    /// share it, capped at `max_burst` packets (a lone frame always moves).
    fn run_of<'a>(&self, mut frames: impl Iterator<Item = &'a Frame>) -> (Route, usize) {
        let head = frames.next().expect("a frame to route");
        let route = (self.route)(head.header());
        let (mut len, mut packets) = (1, head.packet_count());
        for f in frames {
            if packets >= self.max_burst || (self.route)(f.header()) != route {
                break;
            }
            len += 1;
            packets += f.packet_count();
        }
        (route, len)
    }

    /// Drain the parked bursts and the stash into outputs. Returns false when
    /// blocked on a full output.
    fn drain(&mut self, progressed: &mut bool) -> bool {
        while let Some((idx, b, counted)) = self.parked.pop_front() {
            if let Some(b) = self.push(idx, b, counted, progressed) {
                self.parked.push_front((idx, b, counted));
                return false;
            }
        }
        while !self.stash.is_empty() {
            let (route, len) = self.run_of(self.stash.iter());
            let burst = self.stash.drain(..len).collect();
            if !self.dispatch(route, burst, progressed) {
                return false;
            }
        }
        true
    }

    /// Forward a received burst by carving maximal same-verdict runs off its
    /// front, without restaging through the stash. A burst whose frames all
    /// share one route (the p2p bulk path) moves as-is, zero-copy; a
    /// mixed-destination burst — the collective fan-out pattern — is split
    /// with `split_off`, *moving* each run out instead of cloning it
    /// packet-by-packet. On backpressure the refused run is parked and the
    /// unrouted tail is stashed for the next poll (order within the input is
    /// preserved). Callers must ensure the stash is empty and nothing is
    /// parked. Returns false when now blocked.
    fn forward_runs(&mut self, mut burst: Burst, progressed: &mut bool) -> bool {
        while !burst.is_empty() {
            let (route, len) = self.run_of(burst.iter());
            let rest = if len == burst.len() {
                Burst::new() // whole burst is one run: move it as-is
            } else {
                burst.split_off(len)
            };
            if !self.dispatch(route, burst, progressed) {
                // Keep everything after the parked run in order.
                self.stash.extend(rest);
                return false;
            }
            burst = rest;
        }
        true
    }
}

impl Pollable for CkMachine {
    fn home_rank(&self) -> Option<usize> {
        Some(self.rank)
    }

    fn wake(&self) -> Option<&Wake> {
        Some(&self.wake)
    }

    fn poll(&mut self) -> Step {
        let mut progressed = false;
        if !self.drain(&mut progressed) {
            return if progressed {
                Step::Progress
            } else {
                Step::Idle
            };
        }
        let n = self.inputs.len();
        let mut polled = 0usize;
        // An input left unread because its streak hit `persistence`.
        let mut capped = false;
        'rotate: while polled < n {
            polled += 1;
            let at = self.current;
            self.current = (self.current + 1) % n;
            if self.dead[at] {
                continue;
            }
            let mut streak = 0u32;
            while streak < self.persistence {
                match self.inputs[at].try_recv() {
                    LinkRecv::Burst(burst) => {
                        streak += 1;
                        progressed = true;
                        if self.stash.is_empty() && self.parked.is_empty() {
                            if !self.forward_runs(burst, &mut progressed) {
                                break 'rotate;
                            }
                        } else {
                            self.stash.extend(burst);
                            if !self.drain(&mut progressed) {
                                break 'rotate;
                            }
                        }
                    }
                    LinkRecv::Empty => break,
                    LinkRecv::Closed => {
                        self.dead[at] = true;
                        break;
                    }
                }
            }
            capped |= streak == self.persistence;
        }
        let held = !self.stash.is_empty() || !self.parked.is_empty();
        if self.dead.iter().all(|&d| d) && !held {
            return Step::Done;
        }
        match (progressed, capped || held) {
            (false, _) => Step::Idle,
            // Every live input read empty after the data moved: sleep now.
            (true, false) => Step::Drained,
            (true, true) => Step::Progress,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::executor::ShardedExecutor;
    use crate::transport::link::fifo;
    use crate::transport::link::tests::accept;
    use crossbeam::channel::{bounded, Receiver, Sender};
    use smi_wire::{NetworkPacket, PacketOp, PacketRun};
    use std::sync::atomic::AtomicBool;

    fn pkt(dst: u8) -> Frame {
        NetworkPacket::new(0, dst, 0, PacketOp::Send).into()
    }

    fn fifo_tx(tx: Sender<Burst>) -> LinkTx {
        Box::new(tx)
    }

    fn counters() -> (Arc<AtomicU64>, Arc<AtomicU64>) {
        (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)))
    }

    #[test]
    fn forwards_by_route_and_finishes_on_disconnect() {
        let wake = Wake::default();
        let (mut in_tx, in_rx) = fifo(16, &wake);
        let (out0_tx, out0_rx) = bounded::<Burst>(16);
        let (out1_tx, out1_rx) = bounded::<Burst>(16);
        let (fwd, unr) = counters();
        let m = CkMachine::new(
            0,
            wake,
            vec![in_rx],
            vec![fifo_tx(out0_tx), fifo_tx(out1_tx)],
            Box::new(|h| Route::Output((h.dst % 2) as usize)),
            8,
            4,
            fwd.clone(),
            unr,
            CopyMeter::default(),
        );
        // Mixed-route burst: must be split per output.
        accept(&mut in_tx, (0..10u8).map(pkt).collect());
        drop(in_tx); // machine drains then finishes
        let stop = Arc::new(AtomicBool::new(false));
        let ex = ShardedExecutor::spawn(vec![Box::new(m)], 1, stop);
        ex.join().unwrap();
        let count = |rx: Receiver<Burst>| rx.try_iter().map(|b| b.len()).sum::<usize>();
        assert_eq!(count(out0_rx), 5);
        assert_eq!(count(out1_rx), 5);
        assert_eq!(fwd.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn uniform_burst_forwarded_whole() {
        let wake = Wake::default();
        let (mut in_tx, in_rx) = fifo(4, &wake);
        let (out_tx, out_rx) = bounded::<Burst>(4);
        let (fwd, unr) = counters();
        let m = CkMachine::new(
            0,
            wake,
            vec![in_rx],
            vec![fifo_tx(out_tx)],
            Box::new(|_| Route::Output(0)),
            8,
            64,
            fwd,
            unr,
            CopyMeter::default(),
        );
        accept(&mut in_tx, vec![pkt(0); 7]);
        drop(in_tx);
        let stop = Arc::new(AtomicBool::new(false));
        ShardedExecutor::spawn(vec![Box::new(m)], 1, stop)
            .join()
            .unwrap();
        // The 7-packet burst arrives as a single burst (fast path).
        let bursts: Vec<Burst> = out_rx.try_iter().collect();
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].len(), 7);
    }

    #[test]
    fn run_frame_routed_once_and_counted_in_packets() {
        // A 57-element char run spans 3 packets but moves as one frame:
        // forwards counts the packet span, the output sees one frame.
        let wake = Wake::default();
        let (mut in_tx, in_rx) = fifo(4, &wake);
        let (out_tx, out_rx) = bounded::<Burst>(4);
        let (fwd, unr) = counters();
        let m = CkMachine::new(
            0,
            wake,
            vec![in_rx],
            vec![fifo_tx(out_tx)],
            Box::new(|h| Route::Output(h.dst as usize)),
            8,
            16,
            fwd.clone(),
            unr,
            CopyMeter::default(),
        );
        let run = PacketRun::from_elems(0, 0, 0, PacketOp::Send, &[7u8; 57]);
        accept(&mut in_tx, vec![Frame::Run(run)]);
        drop(in_tx);
        let stop = Arc::new(AtomicBool::new(false));
        ShardedExecutor::spawn(vec![Box::new(m)], 1, stop)
            .join()
            .unwrap();
        let bursts: Vec<Burst> = out_rx.try_iter().collect();
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].len(), 1);
        assert_eq!(fwd.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn fanout_burst_splits_into_per_run_bursts() {
        // The tree-collective staging pattern: one burst holding a window
        // copied per child, grouped per destination (AAAA BBBB CC). The
        // machine must carve it into one whole burst per run — no
        // per-packet splits, no restaging through the stash.
        let wake = Wake::default();
        let (mut in_tx, in_rx) = fifo(4, &wake);
        let outs: Vec<_> = (0..3).map(|_| bounded::<Burst>(8)).collect();
        let (fwd, unr) = counters();
        let m = CkMachine::new(
            0,
            wake,
            vec![in_rx],
            outs.iter().map(|(tx, _)| fifo_tx(tx.clone())).collect(),
            Box::new(|h| Route::Output(h.dst as usize)),
            8,
            16,
            fwd.clone(),
            unr,
            CopyMeter::default(),
        );
        let mut burst: Burst = Vec::new();
        for (dst, copies) in [(0u8, 4), (1, 4), (2, 2)] {
            burst.extend(std::iter::repeat_n(pkt(dst), copies));
        }
        accept(&mut in_tx, burst);
        drop(in_tx);
        let stop = Arc::new(AtomicBool::new(false));
        ShardedExecutor::spawn(vec![Box::new(m)], 1, stop)
            .join()
            .unwrap();
        let sizes: Vec<Vec<usize>> = outs
            .iter()
            .map(|(_, rx)| rx.try_iter().map(|b| b.len()).collect())
            .collect();
        assert_eq!(sizes, vec![vec![4], vec![4], vec![2]]);
        assert_eq!(fwd.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn unroutable_counted_and_dropped() {
        let wake = Wake::default();
        let (mut in_tx, in_rx) = fifo(4, &wake);
        let (out_tx, out_rx) = bounded::<Burst>(4);
        let (fwd, unr) = counters();
        let m = CkMachine::new(
            0,
            wake,
            vec![in_rx],
            vec![fifo_tx(out_tx)],
            Box::new(|h| {
                if h.dst == 0 {
                    Route::Output(0)
                } else {
                    Route::Drop
                }
            }),
            1,
            8,
            fwd,
            unr.clone(),
            CopyMeter::default(),
        );
        accept(&mut in_tx, vec![pkt(0), pkt(3), pkt(0)]);
        drop(in_tx);
        let stop = Arc::new(AtomicBool::new(false));
        ShardedExecutor::spawn(vec![Box::new(m)], 1, stop)
            .join()
            .unwrap();
        let delivered: usize = out_rx.try_iter().map(|b| b.len()).sum();
        assert_eq!(delivered, 2);
        assert_eq!(unr.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stalled_machine_reports_idle_and_releases_on_stop() {
        // Output capacity 1, no consumer: the machine parks the burst and
        // reports Idle; the stop flag releases the executor.
        let wake = Wake::default();
        let (mut in_tx, in_rx) = fifo(8, &wake);
        let (out_tx, _out_rx) = bounded::<Burst>(1);
        let (fwd, unr) = counters();
        let m = CkMachine::new(
            0,
            wake,
            vec![in_rx],
            vec![fifo_tx(out_tx)],
            Box::new(|_| Route::Output(0)),
            1,
            1,
            fwd,
            unr,
            CopyMeter::default(),
        );
        accept(&mut in_tx, vec![pkt(0)]);
        accept(&mut in_tx, vec![pkt(0)]);
        accept(&mut in_tx, vec![pkt(0)]);
        let stop = Arc::new(AtomicBool::new(false));
        let ex = ShardedExecutor::spawn(vec![Box::new(m)], 1, stop.clone());
        std::thread::sleep(std::time::Duration::from_millis(20));
        stop.store(true, Ordering::SeqCst);
        ex.join().unwrap(); // must terminate
    }

    /// A multicast into a child output that is full (depth 1): the refused
    /// copy parks, nothing for any output passes it, and the local delivery
    /// never goes before its copies. Every frame reaches every output once,
    /// in order, re-addressed for the children; `forwards` counts each
    /// packet once, and each copy of an inline packet is a metered copy.
    #[test]
    fn multicast_parks_behind_a_full_child_and_delivers_locally_last() {
        const FRAMES: i32 = 12;
        let wake = Wake::default();
        let (mut in_tx, in_rx) = fifo(FRAMES as usize, &wake);
        let (child_a, a_rx) = bounded::<Burst>(1);
        let (child_b, b_rx) = bounded::<Burst>(4);
        let (local, local_rx) = bounded::<Burst>(4);
        let (fwd, unr) = counters();
        let copies: Copies = Arc::new([(1, 0), (2, 1)]);
        let route = move |_: &Header| Route::Multicast {
            copies: copies.clone(),
            local: 2,
        };
        let outputs = vec![fifo_tx(child_a.clone()), fifo_tx(child_b), fifo_tx(local)];
        let mut m = CkMachine::new(
            0,
            wake,
            vec![in_rx],
            outputs,
            Box::new(route),
            4,
            8,
            fwd.clone(),
            unr,
            CopyMeter::default(),
        );
        let meter = m.copies.clone();
        // Even frames are inline packets, odd ones single-packet runs.
        for seq in 0..FRAMES {
            let frame = if seq % 2 == 0 {
                let mut pkt = NetworkPacket::new(0, 0, 0, PacketOp::Bcast);
                pkt.write_elem(0, &seq);
                pkt.into()
            } else {
                Frame::Run(PacketRun::from_elems(0, 0, 0, PacketOp::Bcast, &[seq]))
            };
            accept(&mut in_tx, vec![frame]);
        }
        child_a.try_send(Burst::new()).unwrap();
        assert_eq!(m.poll(), Step::Progress, "parked, so still runnable");
        assert!(
            b_rx.is_empty() && local_rx.is_empty(),
            "a frame passed the parked copy"
        );
        assert!(a_rx.try_recv().unwrap().is_empty()); // room for one copy
        let tag = |f: Frame| {
            let seq = match &f {
                Frame::Pkt(p) => p.read_elem::<i32>(0),
                Frame::Run(r) => r.packet(0).read_elem::<i32>(0),
            };
            (f.header().dst, seq)
        };
        let mut got: [Vec<(u8, i32)>; 3] = Default::default();
        for _ in 0..4 * FRAMES {
            m.poll();
            for (out, rx) in got.iter_mut().zip([&a_rx, &b_rx, &local_rx]) {
                out.extend(rx.try_iter().flatten().map(tag));
            }
            let copied = got[0].len().min(got[1].len());
            assert!(got[2].len() <= copied, "a local delivery passed its copies");
        }
        let want = |dst: u8| Vec::from_iter((0..FRAMES).map(|seq| (dst, seq)));
        assert_eq!(got, [want(1), want(2), want(0)]);
        assert_eq!(
            fwd.load(Ordering::Relaxed),
            FRAMES as u64,
            "one crossing per packet"
        );
        let inline_copies = (FRAMES as u64 / 2) * 2;
        assert_eq!(
            meter.count(),
            inline_copies * smi_wire::PAYLOAD_BYTES as u64
        );
    }

    /// A ready-`Sync` from wire rank `child` to rank 1 on port 0, tagged.
    fn sync_pkt(child: u8, tag: u32) -> Frame {
        NetworkPacket::control(child, 1, 0, PacketOp::Sync, tag).into()
    }

    /// Rank 1's announcement to its parent, rank 0, leaving by pair 0.
    fn up(tag: u32) -> (NetworkPacket, usize) {
        (NetworkPacket::control(1, 0, 0, PacketOp::Sync, tag), 0)
    }

    /// `(src, dst, tag)` of every frame waiting in `rx`.
    fn tags(rx: &Receiver<Burst>) -> Vec<(u8, u8, u32)> {
        let tag = |f: Frame| match f {
            Frame::Pkt(p) => (p.header.src, p.header.dst, p.control_arg()),
            Frame::Run(_) => panic!("a run"),
        };
        rx.try_iter().flatten().map(tag).collect()
    }

    /// A CKR of rank 1 whose output 0 is the link toward the parent (depth
    /// `link_depth`) and output 1 the port's delivery; `route` decides.
    fn folding_ckr(
        link_depth: usize,
        route: impl Fn(&Header) -> Route + Send + 'static,
    ) -> (LinkTx, CkMachine, Sender<Burst>, [Receiver<Burst>; 2]) {
        let wake = Wake::default();
        let (in_tx, in_rx) = fifo(16, &wake);
        let (link, link_rx) = bounded::<Burst>(link_depth);
        let (local, local_rx) = bounded::<Burst>(16);
        let outputs = vec![fifo_tx(link.clone()), fifo_tx(local)];
        let (fwd, unr) = counters();
        let route = Box::new(route);
        let meter = CopyMeter::default();
        let m = CkMachine::new(1, wake, vec![in_rx], outputs, route, 8, 8, fwd, unr, meter);
        (in_tx, m, link, [link_rx, local_rx])
    }

    /// Children 2, 3 and 4 of rank 1, re-addressed through pair 0.
    fn copies() -> Copies {
        Arc::new([(2, 0), (3, 0), (4, 0)])
    }

    /// Whether every `Sync` the port counted was claimed.
    fn all_claimed(sync: &PortCtl) -> bool {
        sync.lock().tally.iter().all(|&n| n == 0)
    }

    /// Over back-to-back messages on one port, at every split: the first
    /// `split` children's `Sync`s reach the CKR before the member arms and
    /// are tallied, the open claims them, and the CKR claims the rest as
    /// they come. The member announces exactly once per message — from the
    /// open when every child was tallied, else onto the parent's link from
    /// the CKR that claimed the last — and never before its last child.
    /// Every `Sync` is one forward, the announcement none, and none reaches
    /// the delivery.
    #[test]
    fn tallied_before_arm_and_claimed_after_arm_announce_once() {
        let sync = PortCtl::default();
        let port = sync.clone();
        let (mut in_tx, mut m, _link, [link_rx, local_rx]) =
            folding_ckr(4, move |_| Route::Count(port.clone()));
        let mut msg = 0;
        for _ in 0..3 {
            for split in 0..=3u8 {
                for child in 2..2 + split {
                    accept(&mut in_tx, vec![sync_pkt(child, msg)]);
                    m.poll();
                }
                let armed = sync.arm(copies(), &[2, 3, 4], Some(up(msg)));
                let mut sent: Vec<_> = armed.iter().map(|p| (1, 0, p.control_arg())).collect();
                assert_eq!(sync.awaited(), usize::from(3 - split), "split {split}");
                for child in 2 + split..5 {
                    assert!(
                        sent.is_empty() && link_rx.is_empty(),
                        "split {split}: early"
                    );
                    accept(&mut in_tx, vec![sync_pkt(child, msg)]);
                    m.poll();
                    sent.extend(tags(&link_rx));
                }
                assert_eq!(sent, [(1, 0, msg)], "split {split}: one announcement");
                assert!(local_rx.is_empty() && all_claimed(&sync), "split {split}");
                sync.disarm();
                msg += 1;
            }
        }
        assert_eq!(m.forwards.load(Ordering::Relaxed), 3 * u64::from(msg));
    }

    /// A fold armed for children 2 and 3 meets a `Sync` from 4, which is
    /// no child of this message (a later message's announcement under a
    /// rotating root, or another communicator's on the same port): it
    /// stays armed and announces only after 2 and 3, and the next open,
    /// which has 4 as a child, claims the tallied `Sync` at once.
    #[test]
    fn a_non_childs_sync_waits_in_the_tally_for_a_later_open() {
        let sync = PortCtl::default();
        let port = sync.clone();
        let (mut in_tx, mut m, _link, [link_rx, local_rx]) =
            folding_ckr(4, move |_| Route::Count(port.clone()));
        assert!(sync.arm(copies(), &[2, 3], Some(up(0))).is_none());
        for (child, awaited) in [(4, 2), (2, 1)] {
            accept(&mut in_tx, vec![sync_pkt(child, 0)]);
            m.poll();
            assert!(link_rx.is_empty(), "announced after a Sync from {child}");
            assert_eq!(sync.awaited(), awaited);
        }
        accept(&mut in_tx, vec![sync_pkt(3, 0)]);
        m.poll();
        assert_eq!(tags(&link_rx), [(1, 0, 0)]);
        sync.disarm();
        let next = sync.arm(Arc::new([(4, 0)]), &[4], Some(up(1)));
        assert_eq!(next.map(|p| p.control_arg()), Some(1), "4's Sync claimed");
        assert!(all_claimed(&sync) && local_rx.is_empty());
    }

    /// The parent's link is full: a frame routed onto it parks, the
    /// children's `Sync`s wait behind it, and the announcement they
    /// complete parks behind that frame and ahead of the one after them.
    /// The link carries all three in routing order.
    #[test]
    fn a_refused_announcement_parks_in_order() {
        let sync = PortCtl::default();
        assert!(sync.arm(copies(), &[2, 3], Some(up(7))).is_none());
        let port = sync.clone();
        let route = move |h: &Header| match h.op {
            PacketOp::Sync => Route::Count(port.clone()),
            _ => Route::Output(0),
        };
        let (mut in_tx, mut m, link, [link_rx, local_rx]) = folding_ckr(1, route);
        let pkt = |tag: u32| Frame::from(NetworkPacket::control(1, 0, 0, PacketOp::Credit, tag));
        link.try_send(vec![pkt(0)]).unwrap(); // the link is full
        accept(&mut in_tx, vec![pkt(1)]);
        accept(&mut in_tx, vec![sync_pkt(2, 0), sync_pkt(3, 0), pkt(2)]);
        let mut got = Vec::new();
        for _ in 0..8 {
            m.poll();
            got.extend(tags(&link_rx));
        }
        assert_eq!(got, [(1, 0, 0), (1, 0, 1), (1, 0, 7), (1, 0, 2)]);
        assert!(local_rx.is_empty());
        assert_eq!(
            m.forwards.load(Ordering::Relaxed),
            4,
            "two Syncs, two frames"
        );
    }

    /// On a port no member holds, every `Sync` is tallied under its sender
    /// and counted as one forward; none is delivered.
    #[test]
    fn a_disarmed_port_tallies_every_sync_and_delivers_none() {
        let sync = PortCtl::default();
        let port = sync.clone();
        let (mut in_tx, mut m, _link, [link_rx, local_rx]) =
            folding_ckr(4, move |_| Route::Count(port.clone()));
        accept(
            &mut in_tx,
            vec![sync_pkt(2, 5), sync_pkt(3, 6), sync_pkt(2, 7)],
        );
        m.poll();
        assert!(local_rx.is_empty() && link_rx.is_empty());
        assert_eq!(m.forwards.load(Ordering::Relaxed), 3);
        assert_eq!(sync.lock().tally, [0, 0, 2, 1]);
    }

    /// Credits join the port's grant FIFO in arrival order, a `Sync` among
    /// them its tally; each is one forward and none is delivered.
    #[test]
    fn credits_join_the_grant_fifo_in_arrival_order() {
        let ctl = PortCtl::default();
        let port = ctl.clone();
        let (mut in_tx, mut m, _link, [link_rx, local_rx]) =
            folding_ckr(4, move |_| Route::Count(port.clone()));
        let credit = |arg| Frame::from(NetworkPacket::control(2, 1, 0, PacketOp::Credit, arg));
        accept(&mut in_tx, vec![credit(5), sync_pkt(3, 0), credit(7)]);
        accept(&mut in_tx, vec![credit(9)]);
        m.poll();
        assert!(local_rx.is_empty() && link_rx.is_empty());
        assert_eq!(m.forwards.load(Ordering::Relaxed), 4);
        let state = ctl.lock();
        assert_eq!(
            (&state.tally[..], &state.grants),
            (&[0, 0, 0, 1][..], &[5, 7, 9].into())
        );
    }

    /// The endpoint of an interior member with three children opens while
    /// one CKR of its rank counts the children's `Sync`s, at every split
    /// between those counted before the open and after it, over
    /// back-to-back messages on one port: the CKR side feeds its children
    /// one at a time and the open comes at a seeded point. Exactly one
    /// announcement per message leaves — staged by the open through the
    /// endpoint's lane, or onto the CKR's link — and whichever side sends
    /// it has seen every child fed. The CKR counts every `Sync`.
    #[test]
    fn an_open_racing_the_ckr_announces_once_per_message() {
        use crate::endpoint::{new_table, CksLanes, PacketRx, PortIo, PortRes};
        use crate::transport::link::burst_queue;
        use crate::RuntimeParams;
        use smi_codegen::{OpKind, OpSpec};
        use smi_wire::Datatype;
        use std::sync::atomic::AtomicUsize;
        use std::time::{Duration, Instant};
        const CHILDREN: usize = 3;
        const MESSAGES: u32 = 20;
        let next = |x: &mut u64| {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            *x
        };
        let op = OpSpec::bcast(0, Datatype::Int);
        let (lane, lane_rx) = bounded::<Burst>(64);
        let (_delivery, data_rx) = burst_queue(64);
        let res = PortRes::new(
            &op,
            CksLanes::loopback(fifo_tx(lane)),
            Some(PacketRx::new(data_rx, CopyMeter::default())),
        );
        let sync = res.ctl.clone().expect("a bcast port");
        let table = new_table();
        table.lock().put(0, op.kind, res);
        let params = RuntimeParams::default();
        let children: Vec<u8> = (2..2 + CHILDREN as u8).collect();
        for seed in 1..=4u64 {
            for split in 0..=CHILDREN {
                let (mut in_tx, mut m, _link, [link_rx, local_rx]) = folding_ckr(64, {
                    let sync = sync.clone();
                    move |_| Route::Count(sync.clone())
                });
                for msg in 0..MESSAGES {
                    let (before, after) = children.split_at(split);
                    for &child in before {
                        accept(&mut in_tx, vec![sync_pkt(child, msg)]);
                        m.poll();
                    }
                    let fed = AtomicUsize::new(split);
                    // Set by the side that sent an announcement before every
                    // child was fed; checked once both sides are done, so a
                    // failure cannot leave the other side spinning.
                    let early = AtomicBool::new(false);
                    std::thread::scope(|s| {
                        let (fed, early, table, params) = (&fed, &early, &table, &params);
                        let children = &children;
                        s.spawn(move || {
                            let mut x = seed ^ (u64::from(msg + 1) << 8);
                            while next(&mut x) % 4 != 0 {
                                std::thread::yield_now();
                            }
                            let mut io = PortIo::open(
                                table.clone(),
                                0,
                                OpKind::Bcast,
                                Datatype::Int,
                                params,
                            )
                            .unwrap();
                            io.arm(children, Some(up(msg).0));
                            if !io.flushed() {
                                let all = fed.load(Ordering::SeqCst) == CHILDREN;
                                early.fetch_or(!all, Ordering::SeqCst);
                                assert!(io.try_flush().unwrap());
                            }
                            // Hold the port until the CKR claimed every
                            // child; a claim that never comes fails below.
                            let until = Instant::now() + Duration::from_secs(5);
                            while io.ctl().awaited() > 0 && Instant::now() < until {
                                std::thread::yield_now();
                            }
                        });
                        s.spawn(|| {
                            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(msg);
                            for &child in after {
                                fed.fetch_add(1, Ordering::SeqCst);
                                accept(&mut in_tx, vec![sync_pkt(child, msg)]);
                                if next(&mut x).is_multiple_of(2) {
                                    std::thread::yield_now();
                                }
                                m.poll();
                                if !link_rx.is_empty() {
                                    let all = fed.load(Ordering::SeqCst) == CHILDREN;
                                    early.fetch_or(!all, Ordering::SeqCst);
                                }
                            }
                        });
                    });
                    let sent: Vec<_> = tags(&lane_rx).into_iter().chain(tags(&link_rx)).collect();
                    let at = format!("seed {seed}, split {split}, message {msg}");
                    assert!(!early.load(Ordering::SeqCst), "{at}: announced early");
                    assert_eq!(sent, [(1, 0, msg)], "{at}");
                    assert!(local_rx.is_empty() && all_claimed(&sync), "{at}");
                }
                let counted = m.forwards.load(Ordering::Relaxed);
                assert_eq!(counted, u64::from(MESSAGES) * CHILDREN as u64);
            }
        }
    }

    /// One output of depth `out_depth`, `inputs` inputs, persistence `r`.
    fn polled(
        inputs: usize,
        out_depth: usize,
        r: u32,
    ) -> (Vec<LinkTx>, CkMachine, Receiver<Burst>) {
        let wake = Wake::default();
        let (feeds, rxs): (Vec<LinkTx>, Vec<LinkRx>) = (0..inputs).map(|_| fifo(8, &wake)).unzip();
        let (out_tx, out_rx) = bounded::<Burst>(out_depth);
        let (fwd, unr) = counters();
        let route = Box::new(|_: &Header| Route::Output(0));
        let outputs = vec![fifo_tx(out_tx)];
        let meter = CopyMeter::default();
        let m = CkMachine::new(0, wake, rxs, outputs, route, r, 8, fwd, unr, meter);
        (feeds, m, out_rx)
    }

    #[test]
    fn poll_that_empties_every_input_is_drained() {
        let (mut feeds, mut m, out) = polled(2, 8, 4);
        accept(&mut feeds[1], vec![pkt(0)]);
        accept(&mut feeds[1], vec![pkt(1)]);
        assert_eq!(m.poll(), Step::Drained);
        assert_eq!(out.try_iter().count(), 2);
        assert_eq!(m.poll(), Step::Idle);
    }

    #[test]
    fn poll_cut_short_by_persistence_is_progress() {
        let (mut feeds, mut m, _out) = polled(1, 8, 2);
        for dst in 0..3 {
            accept(&mut feeds[0], vec![pkt(dst)]);
        }
        // Two bursts, then the streak is capped with the third unread.
        assert_eq!(m.poll(), Step::Progress);
        assert_eq!(m.poll(), Step::Drained);
    }

    #[test]
    fn poll_stopped_by_a_full_output_is_progress() {
        let (mut feeds, mut m, out) = polled(1, 1, 4);
        accept(&mut feeds[0], vec![pkt(0)]);
        accept(&mut feeds[0], vec![pkt(1)]);
        // The second burst is parked: the machine holds its handle.
        assert_eq!(m.poll(), Step::Progress);
        assert_eq!(out.try_iter().count(), 1);
        assert_eq!(m.poll(), Step::Drained);
        assert_eq!(out.try_iter().count(), 1);
    }

    #[test]
    fn order_within_input_preserved_under_backpressure() {
        let wake = Wake::default();
        let (mut in_tx, in_rx) = fifo(64, &wake);
        let (out_tx, out_rx) = bounded::<Burst>(1);
        let (fwd, unr) = counters();
        let m = CkMachine::new(
            0,
            wake,
            vec![in_rx],
            vec![fifo_tx(out_tx)],
            Box::new(|_| Route::Output(0)),
            4,
            2,
            fwd,
            unr,
            CopyMeter::default(),
        );
        for i in 0..50u8 {
            accept(&mut in_tx, vec![pkt(i)]);
        }
        drop(in_tx);
        let stop = Arc::new(AtomicBool::new(false));
        let ex = ShardedExecutor::spawn(vec![Box::new(m)], 1, stop);
        // Slowly drain the capacity-1 output while the machine runs.
        let mut seen = Vec::new();
        while seen.len() < 50 {
            for b in out_rx.try_iter() {
                seen.extend(b.into_iter().map(|f| f.header().dst));
            }
            std::thread::yield_now();
        }
        ex.join().unwrap();
        assert_eq!(seen, (0..50u8).collect::<Vec<_>>());
    }
}
