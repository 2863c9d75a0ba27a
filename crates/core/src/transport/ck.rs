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

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use smi_wire::{Frame, Header};

use crate::transport::executor::{Pollable, Step, Wake};
use crate::transport::link::{LinkRecv, LinkRx, LinkSend, LinkTx};
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
    /// No route — count as unroutable and drop (always a wiring bug).
    Drop,
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
