//! Engine-agnostic inter-CK links: the [`Transport`]/[`TransportReceiver`]
//! trait pair the CK state machines poll instead of concrete FIFOs. Every
//! CKR input — a link from a peer rank, the FIFO from its own CKS, the demux
//! queue a socket pump fills — is one [`burst_queue`], and so is every
//! endpoint delivery the CKRs write; edges that cross a process boundary are
//! sent over framed TCP / Unix-domain sockets
//! ([`crate::transport::socket`]). The endpoint lanes into the CKSs are the
//! last crossbeam FIFOs on the data path ([`fifo`]). `offer`/`try_recv`
//! never block, and backpressure is reported, not waited out.
//!
//! `offer` empties the caller's own burst buffer and `try_recv` fills it. A
//! burst queue trades every buffer it takes for a spare its consumer handed
//! back, so in steady state no hop allocates; a lane still takes its
//! producer's `Vec` for good.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};
use parking_lot::Mutex;

use crate::transport::executor::Wake;
use crate::transport::Burst;

/// Outcome of offering a burst to a link's send half.
#[derive(Debug, PartialEq)]
pub(crate) enum LinkSend {
    /// The link took the frames; the burst is left empty.
    Accepted,
    /// The link is full; the burst is left as it was, for the caller to
    /// park.
    Full,
    /// The far side is gone (teardown, or a dead peer process). The frames
    /// are dropped and the burst left empty; peer-death diagnostics travel
    /// through the fabric health board, not through the link.
    Closed,
}

/// Outcome of polling a link's receive half.
#[derive(Debug, PartialEq)]
pub(crate) enum LinkRecv {
    /// A burst arrived: its frames follow the caller's.
    Burst,
    /// Nothing available right now.
    Empty,
    /// The link is drained and will never produce again.
    Closed,
}

/// Send half of an inter-CK link. Implementations must never block.
pub(crate) trait Transport: Send {
    /// Offer the frames of `burst` as one burst (see [`LinkSend`]).
    fn offer(&mut self, burst: &mut Burst) -> LinkSend;

    /// One more producer into the same link. The link closes only once the
    /// original and every share are gone.
    fn share(&self) -> LinkTx;
}

/// Receive half of an inter-CK link. Implementations must never block.
pub(crate) trait TransportReceiver: Send {
    /// Poll for the next burst, appending its frames to `into`; an empty
    /// `into` may be traded for the burst's own buffer.
    fn try_recv(&mut self, into: &mut Burst) -> LinkRecv;

    /// Name the consumer's wake handle, for a link made before its consumer
    /// (every [`burst_queue`]): from here on whoever fills or closes the
    /// link raises `wake` afterwards. An endpoint lane's send half carries
    /// the handle from the start ([`fifo`]).
    fn wake_with(&mut self, _wake: &Wake) {}
}

/// Boxed send half — what the wiring hands a CK machine per output edge,
/// and an endpoint per lane.
pub(crate) type LinkTx = Box<dyn Transport>;
/// Boxed receive half — what the wiring hands a CK machine per input edge.
pub(crate) type LinkRx = Box<dyn TransportReceiver>;

/// A consumer's wake handle that is also raised when dropped. A sender
/// declares it *after* the channel half it guards, so it drops after it:
/// the consumer woken for a close finds the link closed.
#[derive(Clone)]
struct RaiseOnDrop(Wake);

impl Drop for RaiseOnDrop {
    fn drop(&mut self) {
        self.0.raise();
    }
}

/// The send half of an endpoint lane: a bounded crossbeam FIFO of bursts
/// that raises its CK machine's wake handle after every push and when it is
/// dropped. Nothing ever waits on it: a full FIFO hands the burst back,
/// blocking callers included.
#[derive(Clone)]
struct FifoTx {
    tx: Sender<Burst>,
    wake: RaiseOnDrop,
}

impl Transport for FifoTx {
    /// The lane keeps moving `Vec`s: the burst's buffer goes with it.
    fn offer(&mut self, burst: &mut Burst) -> LinkSend {
        match self.tx.try_send(std::mem::take(burst)) {
            Ok(()) => {
                self.wake.0.raise();
                LinkSend::Accepted
            }
            Err(TrySendError::Full(b)) => {
                *burst = b;
                LinkSend::Full
            }
            Err(TrySendError::Disconnected(_)) => LinkSend::Closed,
        }
    }

    fn share(&self) -> LinkTx {
        Box::new(self.clone())
    }
}

/// Receive half of an endpoint lane: an empty `into` takes the lane's
/// buffer whole.
impl TransportReceiver for Receiver<Burst> {
    fn try_recv(&mut self, into: &mut Burst) -> LinkRecv {
        match Receiver::try_recv(self) {
            Ok(b) if into.is_empty() => *into = b,
            Ok(mut b) => into.append(&mut b),
            Err(TryRecvError::Empty) => return LinkRecv::Empty,
            Err(TryRecvError::Disconnected) => return LinkRecv::Closed,
        }
        LinkRecv::Burst
    }
}

/// An endpoint's lane into a CKS: a FIFO drained by the machine that sleeps
/// on `consumer`. Lanes are the last crossbeam FIFOs on the data path, whose
/// every push notifies a condvar nobody waits on; every CKR input and every
/// endpoint delivery is a [`burst_queue`] instead.
pub(crate) fn fifo(depth: usize, consumer: &Wake) -> (LinkTx, LinkRx) {
    let (tx, rx) = bounded(depth);
    let wake = RaiseOnDrop(consumer.clone());
    (Box::new(FifoTx { tx, wake }), Box::new(rx))
}

/// Every CKR input's and every delivery's queue: bursts, spare buffers,
/// capacity, producers and consumer flag under one lock, and no condvar — a
/// CKR sleeps on the [`Wake`] it names once
/// ([`TransportReceiver::wake_with`]), and a delivery's consumer, rank code,
/// names none — so a push costs a lock and at most a raise, no syscall.
/// Zero producers (after the last drop or a [`QueueTx::close`]) is final.
///
/// `ready` publishes, under the lock, the queued bursts plus [`CLOSED`]
/// once no producer is left, so a poll of an empty open queue is one atomic
/// load and takes no lock. A producer publishes before it raises, and a
/// consumer's worker lowers its wake before the poll reads `ready` (both
/// `SeqCst`), so a poll that read an empty queue either sees the push or is
/// raised by it. Only the consumer reads `ready`, so its own take publishes
/// `Relaxed`.
struct Queue {
    state: Mutex<QueueState>,
    ready: AtomicUsize,
    wake: OnceLock<Wake>,
}

/// The flag [`Queue::ready`] carries once the last producer is gone.
const CLOSED: usize = 1 << (usize::BITS - 1);

/// Emptied buffers a [`burst_queue`] keeps for its producers: enough for
/// the backlog a tree broadcast's hops build, so that a multicast hop on
/// `bus(32)` allocates nothing (`tests/alloc_budget.rs`; 4 read 6 × the
/// allocations of 8). The list is allocated with the queue, so a queue's
/// first spare costs nothing mid-stream.
const SPARES: usize = 8;

struct QueueState {
    bursts: VecDeque<Burst>,
    /// Emptied buffers the consumer handed back, at most [`SPARES`]: a push
    /// trades the burst it takes for one.
    spares: Vec<Burst>,
    cap: usize,
    producers: usize,
    consumer: bool,
}

impl Queue {
    fn raise(&self) {
        if let Some(wake) = self.wake.get() {
            wake.raise();
        }
    }

    /// Publish what `s` holds; call under the lock, after every change.
    fn publish(&self, s: &QueueState, order: Ordering) {
        let closed = if s.producers == 0 { CLOSED } else { 0 };
        self.ready.store(s.bursts.len() | closed, order);
    }
}

/// A producer into a [`burst_queue`]; a clone is one more producer.
pub(crate) struct QueueTx(Arc<Queue>);

/// The consumer of a [`burst_queue`]; dropping it closes every offer.
struct QueueRx(Arc<Queue>);

/// A queue of at most `cap` (≥ 1) bursts, counted in bursts whatever their
/// length, with any number of producers: a delivery has one per CKR of its
/// rank, a link up to `np + 1`. It reads `Closed` once it is empty and its
/// last producer gone, both seen under the lock, so a close racing a push
/// strands no burst.
pub(crate) fn burst_queue(cap: usize) -> (QueueTx, LinkRx) {
    let state = QueueState {
        bursts: VecDeque::new(),
        spares: Vec::with_capacity(SPARES),
        cap: cap.max(1),
        producers: 1,
        consumer: true,
    };
    let queue = Arc::new(Queue {
        state: Mutex::new(state),
        ready: AtomicUsize::new(0),
        wake: OnceLock::new(),
    });
    (QueueTx(queue.clone()), Box::new(QueueRx(queue)))
}

impl QueueTx {
    /// [`Transport::offer`] for a shared producer: queue `burst`'s buffer,
    /// leave a spare (or a new empty one) in its place, then raise.
    pub fn push(&self, burst: &mut Burst) -> LinkSend {
        let mut s = self.0.state.lock();
        if !s.consumer || s.producers == 0 {
            burst.clear();
            return LinkSend::Closed;
        }
        if s.bursts.len() >= s.cap {
            return LinkSend::Full;
        }
        let spare = s.spares.pop().unwrap_or_default();
        s.bursts.push_back(std::mem::replace(burst, spare));
        self.0.publish(&s, Ordering::SeqCst);
        drop(s);
        self.0.raise();
        LinkSend::Accepted
    }

    /// End every producer at once, and raise the consumer for it.
    pub fn close(&self) {
        let mut s = self.0.state.lock();
        s.producers = 0;
        self.0.publish(&s, Ordering::SeqCst);
        drop(s);
        self.0.raise();
    }
}

impl Clone for QueueTx {
    fn clone(&self) -> Self {
        let mut s = self.0.state.lock();
        s.producers += usize::from(s.producers > 0);
        QueueTx(self.0.clone())
    }
}

/// As a [`RaiseOnDrop`]: counted out, then the raise that lets `Closed` be read.
impl Drop for QueueTx {
    fn drop(&mut self) {
        let mut s = self.0.state.lock();
        s.producers = s.producers.saturating_sub(1);
        self.0.publish(&s, Ordering::SeqCst);
        drop(s);
        self.0.raise();
    }
}

impl Transport for QueueTx {
    fn offer(&mut self, burst: &mut Burst) -> LinkSend {
        self.push(burst)
    }

    fn share(&self) -> LinkTx {
        Box::new(self.clone())
    }
}

impl TransportReceiver for QueueRx {
    fn try_recv(&mut self, into: &mut Burst) -> LinkRecv {
        if self.0.ready.load(Ordering::SeqCst) == 0 {
            return LinkRecv::Empty;
        }
        let mut s = self.0.state.lock();
        let Some(mut burst) = s.bursts.pop_front() else {
            return LinkRecv::Closed; // `ready` read nonzero: closed
        };
        if into.is_empty() {
            std::mem::swap(into, &mut burst);
        } else {
            into.append(&mut burst);
        }
        if burst.capacity() > 0 && s.spares.len() < SPARES {
            s.spares.push(burst);
        }
        self.0.publish(&s, Ordering::Relaxed);
        LinkRecv::Burst
    }

    fn wake_with(&mut self, wake: &Wake) {
        let fresh = self.0.wake.set(wake.clone()).is_ok();
        assert!(fresh, "a link has one consumer");
    }
}

impl Drop for QueueRx {
    fn drop(&mut self) {
        self.0.state.lock().consumer = false;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::transport::executor::{ExecutorConfig, Pollable, ShardedExecutor, Step};
    use smi_wire::{Frame, NetworkPacket, PacketOp};
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    /// A bare crossbeam sender as a link nobody is woken by: a test reads
    /// what was sent with the receiver's own API.
    impl Transport for Sender<Burst> {
        fn offer(&mut self, burst: &mut Burst) -> LinkSend {
            match self.try_send(std::mem::take(burst)) {
                Ok(()) => LinkSend::Accepted,
                Err(TrySendError::Full(b)) => {
                    *burst = b;
                    LinkSend::Full
                }
                Err(TrySendError::Disconnected(_)) => LinkSend::Closed,
            }
        }

        fn share(&self) -> LinkTx {
            Box::new(self.clone())
        }
    }

    /// Offer `burst` to a link that must take it.
    pub(crate) fn accept(tx: &mut LinkTx, mut burst: Burst) {
        assert_eq!(tx.offer(&mut burst), LinkSend::Accepted, "link refused");
    }

    /// The next burst of `rx` in a buffer of its own, or how the poll ended.
    pub(crate) fn next_burst(rx: &mut LinkRx) -> Result<Burst, LinkRecv> {
        let mut burst = Burst::new();
        match rx.try_recv(&mut burst) {
            LinkRecv::Burst => Ok(burst),
            ended => Err(ended),
        }
    }

    /// Both kinds of CK input — an endpoint lane and a burst queue — of
    /// `depth` bursts, drained by the machine that sleeps on `wake`.
    fn links(depth: usize, wake: &Wake) -> [(LinkTx, LinkRx); 2] {
        let (tx, mut rx) = burst_queue(depth);
        rx.wake_with(wake);
        [fifo(depth, wake), (Box::new(tx), rx)]
    }

    #[test]
    fn link_roundtrip_and_backpressure() {
        let pkt = NetworkPacket::new(0, 1, 0, PacketOp::Send);
        for (mut ltx, mut lrx) in links(1, &Wake::default()) {
            accept(&mut ltx, vec![pkt.into()]);
            // Capacity 1: the second burst stays intact with its producer.
            let mut second = vec![pkt.into(), pkt.into()];
            assert_eq!(ltx.offer(&mut second), LinkSend::Full);
            assert_eq!(second.len(), 2);
            assert_eq!(next_burst(&mut lrx).map(|b| b.len()), Ok(1));
            assert!(matches!(next_burst(&mut lrx), Err(LinkRecv::Empty)));
            drop(ltx);
            assert!(matches!(next_burst(&mut lrx), Err(LinkRecv::Closed)));
        }
    }

    #[test]
    fn link_tx_reports_closed_receiver() {
        for (mut ltx, lrx) in links(1, &Wake::default()) {
            drop(lrx);
            assert_eq!(ltx.offer(&mut Vec::new()), LinkSend::Closed);
        }
    }

    /// Counts the bursts of one link and sleeps whenever it reads it empty,
    /// so only a raise gets it polled again.
    struct Sink {
        wake: Wake,
        rx: LinkRx,
        bursts: Arc<AtomicU64>,
    }

    impl Pollable for Sink {
        fn poll(&mut self) -> Step {
            match next_burst(&mut self.rx) {
                Ok(_) => {
                    self.bursts.fetch_add(1, Ordering::SeqCst);
                    Step::Progress
                }
                Err(LinkRecv::Closed) => Step::Done,
                Err(_) => Step::Idle,
            }
        }

        fn wake(&self) -> Option<&Wake> {
            Some(&self.wake)
        }
    }

    /// A share raises the consumer on push like the original, and the link
    /// reads `Closed` only once the original and every share are gone.
    #[test]
    fn shared_link_tx_raises_and_closes_last() {
        let pkt = NetworkPacket::new(0, 1, 0, PacketOp::Send);
        for (ltx, mut lrx) in links(4, &Wake::default()) {
            let mut share = ltx.share();
            drop(ltx);
            accept(&mut share, vec![pkt.into()]);
            assert!(next_burst(&mut lrx).is_ok());
            assert!(matches!(next_burst(&mut lrx), Err(LinkRecv::Empty)));
            drop(share);
            assert!(matches!(next_burst(&mut lrx), Err(LinkRecv::Closed)));
        }

        // The consumer asleep on a worker parked for 10 s: only a raise from
        // the share wakes it in time.
        for kind in 0..2 {
            let wake = Wake::default();
            let [lane, queue] = links(4, &wake);
            let (ltx, rx) = if kind == 0 { lane } else { queue };
            let bursts = Arc::new(AtomicU64::new(0));
            let sink = Sink {
                wake: wake.clone(),
                rx,
                bursts: bursts.clone(),
            };
            let patient = ExecutorConfig {
                park_min: Duration::from_secs(10),
                park_max: Duration::from_secs(10),
                ..ExecutorConfig::default()
            };
            let stop = Arc::new(AtomicBool::new(false));
            let ex = ShardedExecutor::spawn_with(vec![Box::new(sink)], 1, stop, patient);
            let eventually = |what: &str, cond: &dyn Fn() -> bool| {
                let start = Instant::now();
                while !cond() {
                    assert!(start.elapsed() < Duration::from_secs(5), "never: {what}");
                    std::thread::sleep(Duration::from_millis(1));
                }
            };
            eventually("parked", &|| ex.worker_stats()[0].parks > 0);
            let mut share = ltx.share();
            accept(&mut share, vec![pkt.into()]);
            eventually("the share's push woke the sink", &|| {
                bursts.load(Ordering::SeqCst) == 1
            });
            drop(ltx);
            drop(share);
            let t = Instant::now();
            ex.join().unwrap(); // the last drop's raise lets the sink read `Closed`
            assert!(t.elapsed() < Duration::from_secs(5), "{:?}", t.elapsed());
        }
    }

    /// Burst `seq` of `producer`: `1 + seq % 3` packets, each stamped with
    /// both and its index.
    fn tagged(producer: u8, seq: u32) -> Burst {
        let len = 1 + seq % 3;
        let packet = |i: u32| {
            let mut p = NetworkPacket::new(producer, 0, i as u8, PacketOp::Send);
            p.payload[..4].copy_from_slice(&seq.to_le_bytes());
            p.into()
        };
        (0..len).map(packet).collect()
    }

    /// `(producer, index, seq)` of every packet of a burst.
    fn tags(burst: &[Frame]) -> Vec<(u8, u8, u32)> {
        let tag = |f: &Frame| match f {
            Frame::Pkt(p) => {
                let seq = u32::from_le_bytes(p.payload[..4].try_into().unwrap());
                (p.header.src, p.header.port, seq)
            }
            Frame::Run(_) => panic!("a run in a tagged burst"),
        };
        burst.iter().map(tag).collect()
    }

    /// A seeded xorshift step.
    fn next(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// Three shares of one burst queue feed a consumer thread, all yielding
    /// at seeded points, at capacities 1 and 2: every producer's bursts
    /// arrive whole, in order and once; `Full` hands back the burst offered;
    /// and `Closed` is read only once the last producer is gone and the
    /// queue drained.
    #[test]
    fn burst_queue_survives_seeded_producer_races() {
        const PRODUCERS: u8 = 3;
        const BURSTS: u32 = 2_000;
        for cap in [1, 2] {
            for seed in 1..=8u64 {
                let (tx, mut rx) = burst_queue(cap);
                let shares: Vec<LinkTx> = (0..PRODUCERS).map(|_| tx.share()).collect();
                drop(tx);
                let live = AtomicUsize::new(PRODUCERS as usize);
                std::thread::scope(|s| {
                    for (p, mut share) in (0..PRODUCERS).zip(shares) {
                        let live = &live;
                        s.spawn(move || {
                            let mut x =
                                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(p) + 1);
                            for seq in 0..BURSTS {
                                let mut burst = tagged(p, seq);
                                loop {
                                    match share.offer(&mut burst) {
                                        LinkSend::Accepted => break,
                                        LinkSend::Full => {
                                            assert_eq!(tags(&burst), tags(&tagged(p, seq)));
                                        }
                                        LinkSend::Closed => panic!("closed under a producer"),
                                    }
                                    if next(&mut x).is_multiple_of(4) {
                                        std::thread::yield_now();
                                    }
                                }
                                if next(&mut x).is_multiple_of(8) {
                                    std::thread::yield_now();
                                }
                            }
                            // Counted out before the drop, so a `Closed`
                            // read while any count stands came too early.
                            live.fetch_sub(1, Ordering::SeqCst);
                        });
                    }
                    // The consumer owns `rx`: a failed check drops it, which
                    // turns the producers' next offers into `Closed` and ends
                    // them too, where a consumer that stopped reading would
                    // leave them offering into a full queue.
                    let live = &live;
                    s.spawn(move || {
                        let mut x = seed;
                        let mut want = [0u32; PRODUCERS as usize];
                        loop {
                            match next_burst(&mut rx) {
                                Ok(b) => {
                                    let p = tags(&b)[0].0;
                                    let seq = &mut want[p as usize];
                                    assert_eq!(tags(&b), tags(&tagged(p, *seq)), "cap {cap}");
                                    *seq += 1;
                                }
                                Err(LinkRecv::Empty) if next(&mut x).is_multiple_of(2) => {
                                    std::thread::yield_now()
                                }
                                Err(LinkRecv::Empty) => {}
                                Err(_) => break,
                            }
                        }
                        assert_eq!(live.load(Ordering::SeqCst), 0, "closed early, cap {cap}");
                        assert_eq!(want, [BURSTS; PRODUCERS as usize], "cap {cap} seed {seed}");
                        assert!(matches!(next_burst(&mut rx), Err(LinkRecv::Closed)));
                    });
                });
            }
        }
    }

    /// The delivery contract: three producers (one per CKR) feed a consumer
    /// that names no wake, as rank code does. One thread pushes through the
    /// three in a seeded interleaving while another reads. Every producer's
    /// bursts arrive in its own order; `Full` hands back the burst offered;
    /// `Closed` is read only once the queue is drained and the last producer
    /// gone; once the consumer is gone every push reads `Closed`; and no push
    /// raised anything, because there was never a wake to raise.
    #[test]
    fn a_delivery_without_a_wake_keeps_the_contract() {
        const CAP: usize = 2;
        const BURSTS: u32 = 500;
        for seed in 1..=4u64 {
            let (tx, rx) = burst_queue(CAP);
            let queue = tx.0.clone();
            let mut producers = [Some(tx.clone()), Some(tx.clone()), Some(tx)];
            // Filled before the consumer runs: the next push must bounce.
            for seq in 0..CAP as u32 {
                let p = producers[0].as_ref().unwrap();
                assert_eq!(p.push(&mut tagged(0, seq)), LinkSend::Accepted);
            }
            let mut bounced = tagged(1, 0);
            let full = producers[1].as_ref().unwrap().push(&mut bounced);
            assert_eq!(full, LinkSend::Full, "a full delivery took a burst");
            assert_eq!(tags(&bounced), tags(&tagged(1, 0)));
            let live = AtomicUsize::new(producers.len());
            std::thread::scope(|s| {
                let live = &live;
                s.spawn(move || {
                    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut sent = [CAP as u32, 0, 0];
                    while producers.iter().any(Option::is_some) {
                        let p = (next(&mut x) % 3) as usize;
                        let Some(tx) = &producers[p] else { continue };
                        let mut burst = tagged(p as u8, sent[p]);
                        match tx.push(&mut burst) {
                            LinkSend::Accepted => sent[p] += 1,
                            LinkSend::Full => {
                                assert_eq!(tags(&burst), tags(&tagged(p as u8, sent[p])));
                                std::thread::yield_now();
                            }
                            LinkSend::Closed => panic!("closed under a producer"),
                        }
                        if sent[p] == BURSTS {
                            live.fetch_sub(1, Ordering::SeqCst);
                            producers[p] = None;
                        }
                    }
                });
                s.spawn(move || {
                    let mut rx = rx;
                    let mut want = [0u32; 3];
                    loop {
                        match next_burst(&mut rx) {
                            Ok(b) => {
                                let p = tags(&b)[0].0;
                                let seq = &mut want[p as usize];
                                assert_eq!(tags(&b), tags(&tagged(p, *seq)), "seed {seed}");
                                *seq += 1;
                            }
                            Err(LinkRecv::Empty) => std::thread::yield_now(),
                            Err(_) => break,
                        }
                    }
                    assert_eq!(live.load(Ordering::SeqCst), 0, "closed early, seed {seed}");
                    assert_eq!(want, [BURSTS; 3], "seed {seed}");
                    assert!(matches!(next_burst(&mut rx), Err(LinkRecv::Closed)));
                });
            });
            assert!(
                queue.wake.get().is_none(),
                "a delivery's push raised a wake"
            );
        }

        let (tx, rx) = burst_queue(CAP);
        let producers = [tx.clone(), tx.clone(), tx];
        assert_eq!(producers[2].push(&mut tagged(2, 0)), LinkSend::Accepted);
        drop(rx);
        for (p, tx) in (0..).zip(&producers) {
            assert_eq!(tx.push(&mut tagged(p, 1)), LinkSend::Closed);
        }
    }

    /// Once the consumer is gone, a full queue and an empty one alike turn
    /// every producer's offer into `Closed`.
    #[test]
    fn a_dropped_consumer_closes_every_offer() {
        for fill in [0, 2] {
            let (mut tx, rx) = burst_queue(2);
            let mut share = tx.share();
            for seq in 0..fill {
                assert_eq!(tx.offer(&mut tagged(0, seq)), LinkSend::Accepted);
            }
            drop(rx);
            for seq in 0..4 {
                assert_eq!(tx.offer(&mut tagged(0, seq)), LinkSend::Closed);
                assert_eq!(share.offer(&mut tagged(1, seq)), LinkSend::Closed);
            }
        }
    }

    /// A consumer that read `Empty` without the lock and went to sleep on
    /// its wake, with its worker parked for 10 s, is raised for every burst
    /// pushed afterwards. Each round waits until the worker parked, then
    /// three producers, released together, push one to three bursts each
    /// (seeded; some find the queue full and retry), and the sink must
    /// count them all well before a park would time out.
    #[test]
    fn a_consumer_asleep_on_empty_is_raised_for_every_burst() {
        const ROUNDS: u32 = 12;
        let patient = ExecutorConfig {
            park_min: Duration::from_secs(10),
            park_max: Duration::from_secs(10),
            ..ExecutorConfig::default()
        };
        let eventually = |what: &str, cond: &dyn Fn() -> bool| {
            let start = Instant::now();
            while !cond() {
                assert!(start.elapsed() < Duration::from_secs(5), "never: {what}");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        for seed in 1..=4u64 {
            let wake = Wake::default();
            let (tx, mut rx) = burst_queue(2);
            rx.wake_with(&wake);
            let bursts = Arc::new(AtomicU64::new(0));
            let sink = Sink {
                wake,
                rx,
                bursts: bursts.clone(),
            };
            let stop = Arc::new(AtomicBool::new(false));
            let ex = ShardedExecutor::spawn_with(vec![Box::new(sink)], 1, stop, patient.clone());
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut pushed = 0;
            let parks = || ex.worker_stats()[0].parks;
            eventually("asleep", &|| parks() > 0);
            for round in 0..ROUNDS {
                let before = parks();
                let counts: Vec<u32> = (0..3).map(|_| 1 + (next(&mut x) % 3) as u32).collect();
                let go = std::sync::Barrier::new(3);
                std::thread::scope(|s| {
                    for (p, &n) in (0..3u8).zip(&counts) {
                        let (tx, go) = (tx.clone(), &go);
                        s.spawn(move || {
                            go.wait();
                            let start = Instant::now();
                            for seq in 0..n {
                                let mut burst = tagged(p, round * 3 + seq);
                                while tx.push(&mut burst) == LinkSend::Full {
                                    let waited = start.elapsed();
                                    assert!(waited < Duration::from_secs(5), "stranded full");
                                    std::thread::yield_now();
                                }
                            }
                        });
                    }
                });
                pushed += u64::from(counts.iter().sum::<u32>());
                let at = format!("round {round} seed {seed}: all {pushed} bursts counted");
                eventually(&at, &|| bursts.load(Ordering::SeqCst) == pushed);
                eventually("asleep again", &|| parks() > before);
            }
            drop(tx);
            ex.join().unwrap();
        }
    }

    /// An empty queue reads `Empty` while another thread holds its lock: the
    /// poll reads the published count and never waits for the lock.
    #[test]
    fn an_empty_poll_takes_no_lock() {
        let (tx, mut rx) = burst_queue(4);
        let (done, got) = std::sync::mpsc::channel();
        let got = std::thread::scope(|s| {
            let held = tx.0.state.lock();
            s.spawn(move || done.send(next_burst(&mut rx).err()).unwrap());
            let got = got.recv_timeout(Duration::from_secs(5));
            drop(held);
            got
        });
        assert_eq!(got, Ok(Some(LinkRecv::Empty)));
    }

    /// A queue of `cap` k holds exactly k bursts, whatever their lengths:
    /// with t of them taken into the consumer's own buffers and not read
    /// yet, it accepts exactly t more, so the consumer's buffers add no room
    /// and take none.
    #[test]
    fn a_queue_of_cap_k_holds_exactly_k_bursts() {
        for k in 1..=4u32 {
            for taken in 0..=k {
                let (tx, mut rx) = burst_queue(k as usize);
                for seq in 0..k {
                    assert_eq!(tx.push(&mut tagged(0, seq)), LinkSend::Accepted);
                }
                let held: Vec<Burst> = (0..taken).map(|_| next_burst(&mut rx).unwrap()).collect();
                for seq in 0..taken {
                    assert_eq!(tx.push(&mut tagged(1, seq)), LinkSend::Accepted);
                }
                let mut refused = tagged(1, taken);
                assert_eq!(
                    tx.push(&mut refused),
                    LinkSend::Full,
                    "cap {k}, {taken} taken"
                );
                assert_eq!(tags(&refused), tags(&tagged(1, taken)));
                for (seq, burst) in (0..).zip(&held) {
                    assert_eq!(tags(burst), tags(&tagged(0, seq)));
                }
            }
        }
    }
}
