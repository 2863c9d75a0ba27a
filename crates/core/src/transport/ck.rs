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

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use smi_wire::{Frame, Header};

use crate::transport::executor::{Pollable, Step, Wake};
use crate::transport::link::{LinkRecv, LinkRx, LinkSend, LinkTx};
use crate::transport::Burst;

/// Routing verdict for one frame.
pub(crate) enum Route {
    /// Forward into output `i` of the machine's output list.
    Output(usize),
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
    /// Incremented per forwarded packet (a run counts its packet span).
    pub forwards: Arc<AtomicU64>,
    /// Incremented per dropped packet.
    pub unroutable: Arc<AtomicU64>,
    // --- runtime state ---
    /// Raised by whoever fills or closes an input (the wiring hands every
    /// such producer a clone); this kernel sleeps on it.
    wake: Wake,
    dead: Vec<bool>,
    current: usize,
    /// A routed burst an output refused; retried before anything else.
    parked: Option<(usize, Burst)>,
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
            wake,
            dead: vec![false; n],
            current: 0,
            parked: None,
            stash: VecDeque::new(),
        }
    }

    /// Try to push a routed burst; on `Full` the burst is parked for the
    /// next poll. Returns false when the machine is now blocked.
    fn offer(&mut self, idx: usize, burst: Burst, progressed: &mut bool) -> bool {
        let packets: u64 = burst.iter().map(|f| f.packet_count() as u64).sum();
        match self.outputs[idx].offer(burst) {
            LinkSend::Accepted => {
                self.forwards.fetch_add(packets, Ordering::Relaxed);
                *progressed = true;
                true
            }
            LinkSend::Full(b) => {
                // Room in an output raises nothing: stay runnable.
                self.parked = Some((idx, b));
                self.wake.hold();
                false
            }
            LinkSend::Closed => {
                // Receiver gone: shutdown or a dead peer (reported through
                // the fabric health board); treat the burst as drained.
                *progressed = true;
                true
            }
        }
    }

    /// Drain the parked burst and the stash into outputs. Returns false when
    /// blocked on a full output.
    fn drain(&mut self, progressed: &mut bool) -> bool {
        if let Some((idx, b)) = self.parked.take() {
            if !self.offer(idx, b, progressed) {
                return false;
            }
        }
        while let Some(head) = self.stash.front() {
            let idx = match (self.route)(head.header()) {
                Route::Output(i) => i,
                Route::Drop => {
                    let f = self.stash.pop_front().expect("head");
                    self.unroutable
                        .fetch_add(f.packet_count() as u64, Ordering::Relaxed);
                    *progressed = true;
                    continue;
                }
            };
            // Group the run of consecutive same-output frames into a burst,
            // capped at `max_burst` packets (a single frame always moves).
            let mut burst: Burst = Vec::new();
            let head = self.stash.pop_front().expect("head");
            let mut packets = head.packet_count();
            burst.push(head);
            while packets < self.max_burst {
                match self.stash.front() {
                    Some(f) => match (self.route)(f.header()) {
                        Route::Output(i) if i == idx => {
                            let f = self.stash.pop_front().expect("next");
                            packets += f.packet_count();
                            burst.push(f);
                        }
                        _ => break,
                    },
                    None => break,
                }
            }
            if !self.offer(idx, burst, progressed) {
                return false;
            }
        }
        true
    }

    /// Forward a received burst by carving maximal same-output runs off its
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
            match (self.route)(burst[0].header()) {
                Route::Output(idx) => {
                    // Extend the run while the route stays the same, capped
                    // at `max_burst` packets (a lone frame always moves).
                    let mut packets = burst[0].packet_count();
                    let mut j = 1;
                    while j < burst.len() && packets < self.max_burst {
                        match (self.route)(burst[j].header()) {
                            Route::Output(k) if k == idx => {
                                packets += burst[j].packet_count();
                                j += 1;
                            }
                            _ => break,
                        }
                    }
                    let rest = if j == burst.len() {
                        Burst::new() // whole burst is one run: move it as-is
                    } else {
                        burst.split_off(j)
                    };
                    if !self.offer(idx, burst, progressed) {
                        // The run is parked; keep everything after it in order.
                        self.stash.extend(rest);
                        return false;
                    }
                    burst = rest;
                }
                Route::Drop => {
                    // Group consecutive unroutable frames into one drain.
                    let mut j = 1;
                    while j < burst.len() && matches!((self.route)(burst[j].header()), Route::Drop)
                    {
                        j += 1;
                    }
                    let dropped: u64 = burst[..j].iter().map(|f| f.packet_count() as u64).sum();
                    self.unroutable.fetch_add(dropped, Ordering::Relaxed);
                    *progressed = true;
                    burst = if j == burst.len() {
                        Burst::new()
                    } else {
                        burst.split_off(j)
                    };
                }
            }
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
                        if self.stash.is_empty() && self.parked.is_none() {
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
        let held = !self.stash.is_empty() || self.parked.is_some();
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
    use crate::transport::link::{fifo, FifoTx};
    use crossbeam::channel::{bounded, Receiver, Sender};
    use smi_wire::{NetworkPacket, PacketOp, PacketRun};
    use std::sync::atomic::AtomicBool;

    fn pkt(dst: u8) -> Frame {
        NetworkPacket::new(0, dst, 0, PacketOp::Send).into()
    }

    fn fifo_tx(tx: Sender<Burst>) -> LinkTx {
        Box::new(FifoTx::from(tx))
    }

    fn counters() -> (Arc<AtomicU64>, Arc<AtomicU64>) {
        (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)))
    }

    #[test]
    fn forwards_by_route_and_finishes_on_disconnect() {
        let wake = Wake::default();
        let (in_tx, in_rx) = fifo(16, &wake);
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
        );
        // Mixed-route burst: must be split per output.
        in_tx.try_send((0..10u8).map(pkt).collect()).unwrap();
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
        let (in_tx, in_rx) = fifo(4, &wake);
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
        );
        in_tx.try_send(vec![pkt(0); 7]).unwrap();
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
        let (in_tx, in_rx) = fifo(4, &wake);
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
        );
        let run = PacketRun::from_elems(0, 0, 0, PacketOp::Send, &[7u8; 57]);
        in_tx.try_send(vec![Frame::Run(run)]).unwrap();
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
        let (in_tx, in_rx) = fifo(4, &wake);
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
        );
        let mut burst: Burst = Vec::new();
        for (dst, copies) in [(0u8, 4), (1, 4), (2, 2)] {
            burst.extend(std::iter::repeat_n(pkt(dst), copies));
        }
        in_tx.try_send(burst).unwrap();
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
        let (in_tx, in_rx) = fifo(4, &wake);
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
        );
        in_tx.try_send(vec![pkt(0), pkt(3), pkt(0)]).unwrap();
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
        let (in_tx, in_rx) = fifo(8, &wake);
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
        );
        in_tx.try_send(vec![pkt(0)]).unwrap();
        in_tx.try_send(vec![pkt(0)]).unwrap();
        in_tx.try_send(vec![pkt(0)]).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let ex = ShardedExecutor::spawn(vec![Box::new(m)], 1, stop.clone());
        std::thread::sleep(std::time::Duration::from_millis(20));
        stop.store(true, Ordering::SeqCst);
        ex.join().unwrap(); // must terminate
    }

    /// One output of depth `out_depth`, `inputs` inputs, persistence `r`.
    fn polled(
        inputs: usize,
        out_depth: usize,
        r: u32,
    ) -> (Vec<FifoTx>, CkMachine, Receiver<Burst>) {
        let wake = Wake::default();
        let (feeds, rxs): (Vec<FifoTx>, Vec<LinkRx>) = (0..inputs).map(|_| fifo(8, &wake)).unzip();
        let (out_tx, out_rx) = bounded::<Burst>(out_depth);
        let (fwd, unr) = counters();
        let route = Box::new(|_: &Header| Route::Output(0));
        let m = CkMachine::new(0, wake, rxs, vec![fifo_tx(out_tx)], route, r, 8, fwd, unr);
        (feeds, m, out_rx)
    }

    #[test]
    fn poll_that_empties_every_input_is_drained() {
        let (feeds, mut m, out) = polled(2, 8, 4);
        feeds[1].try_send(vec![pkt(0)]).unwrap();
        feeds[1].try_send(vec![pkt(1)]).unwrap();
        assert_eq!(m.poll(), Step::Drained);
        assert_eq!(out.try_iter().count(), 2);
        assert_eq!(m.poll(), Step::Idle);
    }

    #[test]
    fn poll_cut_short_by_persistence_is_progress() {
        let (feeds, mut m, _out) = polled(1, 8, 2);
        for dst in 0..3 {
            feeds[0].try_send(vec![pkt(dst)]).unwrap();
        }
        // Two bursts, then the streak is capped with the third unread.
        assert_eq!(m.poll(), Step::Progress);
        assert_eq!(m.poll(), Step::Drained);
    }

    #[test]
    fn poll_stopped_by_a_full_output_is_progress() {
        let (feeds, mut m, out) = polled(1, 1, 4);
        feeds[0].try_send(vec![pkt(0)]).unwrap();
        feeds[0].try_send(vec![pkt(1)]).unwrap();
        // The second burst is parked: the machine holds its handle.
        assert_eq!(m.poll(), Step::Progress);
        assert_eq!(out.try_iter().count(), 1);
        assert_eq!(m.poll(), Step::Drained);
        assert_eq!(out.try_iter().count(), 1);
    }

    #[test]
    fn order_within_input_preserved_under_backpressure() {
        let wake = Wake::default();
        let (in_tx, in_rx) = fifo(64, &wake);
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
        );
        for i in 0..50u8 {
            in_tx.try_send(vec![pkt(i)]).unwrap();
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
