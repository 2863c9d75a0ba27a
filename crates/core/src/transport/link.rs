//! Engine-agnostic inter-CK links: the [`Transport`]/[`TransportReceiver`]
//! trait pair the CK state machines poll instead of concrete FIFOs.
//!
//! The transport used to hard-wire crossbeam FIFOs into every CK machine;
//! splitting a cluster across OS processes then meant rewriting the wiring.
//! Links are now trait objects: the burst-batched in-memory FIFO remains the
//! zero-cost fast path ([`FifoTx`]/[`FifoRx`]), while edges that cross a
//! process boundary are backed by framed TCP / Unix-domain sockets
//! ([`crate::transport::socket`]). Both sides keep the poll-mode contract of
//! the executor: `offer`/`try_recv` never block, and backpressure is
//! reported, not waited out.

use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, SendTimeoutError, Sender, TryRecvError, TrySendError};

use crate::transport::executor::Wake;
use crate::transport::Burst;

/// Outcome of offering a burst to a link's send half.
#[derive(Debug)]
pub(crate) enum LinkSend {
    /// The link accepted the burst.
    Accepted,
    /// The link is full; the burst is handed back for the caller to park.
    Full(Burst),
    /// The far side is gone (teardown, or a dead peer process). The burst is
    /// dropped; peer-death diagnostics travel through the fabric health
    /// board, not through the link.
    Closed,
}

/// Outcome of polling a link's receive half.
pub(crate) enum LinkRecv {
    /// A burst arrived.
    Burst(Burst),
    /// Nothing available right now.
    Empty,
    /// The link is drained and will never produce again.
    Closed,
}

/// Send half of an inter-CK link. Implementations must never block.
pub(crate) trait Transport: Send {
    /// Offer one burst; a full link returns it via [`LinkSend::Full`].
    fn offer(&mut self, burst: Burst) -> LinkSend;

    /// One more producer into the same link. The link closes only once the
    /// original and every share are gone.
    fn share(&self) -> LinkTx;
}

/// Receive half of an inter-CK link. Implementations must never block.
pub(crate) trait TransportReceiver: Send {
    /// Poll for the next burst.
    fn try_recv(&mut self) -> LinkRecv;

    /// Name the consumer's wake handle, for a link that was made before its
    /// consumer (a socket's): from here on whoever fills or closes the link
    /// raises `wake` afterwards. An in-memory FIFO's send half carries the
    /// handle from the start ([`fifo`]).
    fn wake_with(&mut self, _wake: &Wake) {}
}

/// Boxed send half — what the wiring hands a CK machine per output edge.
pub(crate) type LinkTx = Box<dyn Transport>;
/// Boxed receive half — what the wiring hands a CK machine per input edge.
pub(crate) type LinkRx = Box<dyn TransportReceiver>;

/// A consumer's wake handle that is also raised when dropped. A sender
/// declares it *after* the channel half it guards, so it drops after it:
/// the consumer woken for a close finds the link closed.
#[derive(Clone)]
struct RaiseOnDrop(Option<Wake>);

impl RaiseOnDrop {
    fn raise(&self) {
        if let Some(wake) = &self.0 {
            wake.raise();
        }
    }
}

impl Drop for RaiseOnDrop {
    fn drop(&mut self) {
        self.raise();
    }
}

/// The in-memory fast path: the send half of a bounded crossbeam FIFO of
/// bursts. When a CK machine drains the FIFO ([`fifo`]) it carries that
/// machine's wake handle and raises it after every push and when it is
/// dropped — whether a peer machine feeds it as a [`Transport`] or an
/// endpoint through the sender-like methods.
#[derive(Clone)]
pub(crate) struct FifoTx {
    tx: Sender<Burst>,
    wake: RaiseOnDrop,
}

impl std::fmt::Debug for FifoTx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FifoTx { .. }")
    }
}

/// A send half nobody is woken by: the consumer is rank code.
impl From<Sender<Burst>> for FifoTx {
    fn from(tx: Sender<Burst>) -> Self {
        FifoTx {
            tx,
            wake: RaiseOnDrop(None),
        }
    }
}

impl FifoTx {
    /// [`Sender::try_send`], then the raise.
    pub fn try_send(&self, burst: Burst) -> Result<(), TrySendError<Burst>> {
        self.tx.try_send(burst)?;
        self.wake.raise();
        Ok(())
    }

    /// [`Sender::send_timeout`], then the raise.
    pub fn send_timeout(
        &self,
        burst: Burst,
        timeout: Duration,
    ) -> Result<(), SendTimeoutError<Burst>> {
        self.tx.send_timeout(burst, timeout)?;
        self.wake.raise();
        Ok(())
    }
}

impl Transport for FifoTx {
    fn offer(&mut self, burst: Burst) -> LinkSend {
        match self.try_send(burst) {
            Ok(()) => LinkSend::Accepted,
            Err(TrySendError::Full(b)) => LinkSend::Full(b),
            Err(TrySendError::Disconnected(_)) => LinkSend::Closed,
        }
    }

    fn share(&self) -> LinkTx {
        Box::new(self.clone())
    }
}

/// Receive half of the in-memory fast path.
struct FifoRx(Receiver<Burst>);

impl TransportReceiver for FifoRx {
    fn try_recv(&mut self) -> LinkRecv {
        match self.0.try_recv() {
            Ok(b) => LinkRecv::Burst(b),
            Err(TryRecvError::Empty) => LinkRecv::Empty,
            Err(TryRecvError::Disconnected) => LinkRecv::Closed,
        }
    }
}

/// A bounded in-memory FIFO of bursts drained by the CK machine that sleeps
/// on `consumer`.
pub(crate) fn fifo(depth: usize, consumer: &Wake) -> (FifoTx, LinkRx) {
    let (tx, rx) = bounded(depth);
    let wake = RaiseOnDrop(Some(consumer.clone()));
    (FifoTx { tx, wake }, Box::new(FifoRx(rx)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::executor::{ExecutorConfig, Pollable, ShardedExecutor, Step};
    use smi_wire::{NetworkPacket, PacketOp};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn fifo_link_roundtrip_and_backpressure() {
        let (mut ltx, mut lrx) = fifo(1, &Wake::default());
        let pkt = NetworkPacket::new(0, 1, 0, PacketOp::Send);
        assert!(matches!(ltx.offer(vec![pkt.into()]), LinkSend::Accepted));
        // Capacity 1: the second burst bounces back intact.
        match ltx.offer(vec![pkt.into(), pkt.into()]) {
            LinkSend::Full(b) => assert_eq!(b.len(), 2),
            _ => panic!("expected Full"),
        }
        match lrx.try_recv() {
            LinkRecv::Burst(b) => assert_eq!(b.len(), 1),
            _ => panic!("expected burst"),
        }
        assert!(matches!(lrx.try_recv(), LinkRecv::Empty));
        drop(ltx);
        assert!(matches!(lrx.try_recv(), LinkRecv::Closed));
    }

    #[test]
    fn fifo_tx_reports_closed_receiver() {
        let (mut ltx, lrx) = fifo(1, &Wake::default());
        drop(lrx);
        assert!(matches!(ltx.offer(Vec::new()), LinkSend::Closed));
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
            match self.rx.try_recv() {
                LinkRecv::Burst(_) => {
                    self.bursts.fetch_add(1, Ordering::SeqCst);
                    Step::Progress
                }
                LinkRecv::Empty => Step::Idle,
                LinkRecv::Closed => Step::Done,
            }
        }

        fn wake(&self) -> Option<&Wake> {
            Some(&self.wake)
        }
    }

    /// A share raises the consumer on push like the original, and the link
    /// reads `Closed` only once the original and every share are gone.
    #[test]
    fn shared_fifo_tx_raises_and_closes_last() {
        let pkt = NetworkPacket::new(0, 1, 0, PacketOp::Send);
        let (ltx, mut lrx) = fifo(4, &Wake::default());
        let mut share = ltx.share();
        drop(ltx);
        assert!(matches!(share.offer(vec![pkt.into()]), LinkSend::Accepted));
        assert!(matches!(lrx.try_recv(), LinkRecv::Burst(_)));
        assert!(matches!(lrx.try_recv(), LinkRecv::Empty));
        drop(share);
        assert!(matches!(lrx.try_recv(), LinkRecv::Closed));

        // The consumer asleep on a worker parked for 10 s: only a raise from
        // the share wakes it in time.
        let wake = Wake::default();
        let (ltx, rx) = fifo(4, &wake);
        let bursts = Arc::new(AtomicU64::new(0));
        let sink = Sink {
            wake,
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
        assert!(matches!(share.offer(vec![pkt.into()]), LinkSend::Accepted));
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
