//! The sharded transport layer: CKS/CKR kernels as cooperative state
//! machines driven by a fixed pool of worker threads, QSFP links as bounded
//! channels moving packet *bursts*, wired from the same
//! topology/routing-plan/design triple as the cycle-accurate fabric.

pub mod ck;
pub mod executor;
pub mod faults;
pub(crate) mod link;
pub(crate) mod socket;
pub mod wiring;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use smi_wire::{Frame, PAYLOAD_BYTES};

/// The unit moved through transport FIFOs: a batch of [`Frame`]s handed over
/// under one queue operation. Endpoint bulk operations and CK forwarding
/// group up to [`crate::RuntimeParams::burst_packets`] packets per burst.
/// Control packets and the copying baseline travel as inline
/// [`Frame::Pkt`]s; zero-copy bulk data travels as refcounted
/// [`Frame::Run`] views.
pub(crate) type Burst = Vec<Frame>;

/// A shared counter of payload bytes *copied* on the payload plane — every
/// place a payload byte is staged into a different buffer (framing, packet
/// unbatching, deframer refill, fan-out duplication, socket serialization,
/// consumer drain) adds to it. Queue handovers that move only a packet
/// struct's ownership or an `Arc` handle do not count. This is what
/// [`crate::env::RunReport::payload_copies`] reports, making every copy the
/// zero-copy plane still performs attributable.
#[derive(Debug, Clone, Default)]
pub struct CopyMeter {
    bytes: Arc<AtomicU64>,
}

impl CopyMeter {
    /// Record `n` payload bytes copied. A zero charge (an empty poll)
    /// touches no shared cache line.
    #[inline]
    pub fn add_bytes(&self, n: usize) {
        if n > 0 {
            self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// Record the payload area of `n` inline data packets copied (a packet
    /// struct copy moves its full payload, valid or not).
    #[inline]
    pub fn add_packets(&self, n: usize) {
        self.add_bytes(n * PAYLOAD_BYTES);
    }

    /// Total payload bytes copied so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// The inline data packets of a burst: what copying (rather than moving)
/// these frames into another buffer costs, in packets. Run frames cost
/// nothing — only their `Arc` handle moves.
#[inline]
pub(crate) fn inline_data_packets(burst: &[Frame]) -> usize {
    burst
        .iter()
        .filter(|f| matches!(f, Frame::Pkt(p) if p.header.op.carries_data()))
        .count()
}

/// Count the inline data packets of a burst into a meter.
#[inline]
pub(crate) fn meter_inline_data(meter: &CopyMeter, burst: &[Frame]) {
    meter.add_packets(inline_data_packets(burst));
}

/// A multicast's copies: `(child's wire rank, CK pair of its next hop)` per
/// child of an interior tree-bcast member, in child order.
pub(crate) type Copies = Arc<[(u8, usize)]>;

/// `frame` re-addressed to wire rank `dst`: a run is an `Arc` clone, an
/// inline data packet a payload copy charged to `meter`.
pub(crate) fn readdressed(frame: &Frame, dst: u8, meter: &CopyMeter) -> Frame {
    match frame {
        Frame::Pkt(pkt) => {
            let mut copy = *pkt;
            copy.header.dst = dst;
            if copy.header.op.carries_data() {
                meter.add_packets(1);
            }
            copy.into()
        }
        Frame::Run(run) => Frame::Run(run.with_dst(dst)),
    }
}

/// Shared wire-level counters for the socket plane: syscalls and bytes on
/// both directions plus buffer-pool and cork effectiveness. One instance is
/// shared by every socket connection of a run (the `Arc`ed counters clone
/// into each `ConnConfig`), so a [`WireSnapshot`] describes the whole
/// process boundary of the run.
#[derive(Debug, Clone, Default)]
pub struct WireStats {
    /// Send-side syscalls (`write`/`write_vectored`) that moved ≥1 byte.
    pub send_syscalls: Arc<AtomicU64>,
    /// Bytes accepted by the kernel across all send syscalls.
    pub send_bytes: Arc<AtomicU64>,
    /// Receive-side `read` syscalls that returned ≥1 byte.
    pub recv_syscalls: Arc<AtomicU64>,
    /// Bytes returned across all receive syscalls.
    pub recv_bytes: Arc<AtomicU64>,
    /// Encode/receive buffers recycled from a pool free list.
    pub pool_hits: Arc<AtomicU64>,
    /// Buffers that had to be freshly allocated (pool empty or oversized).
    pub pool_misses: Arc<AtomicU64>,
    /// Offered bursts merged into a not-yet-transmitted ring frame by the
    /// adaptive cork instead of paying their own frame header.
    pub corked_frames: Arc<AtomicU64>,
    /// `accept` calls on a data listener (each re-dial costs one, and each
    /// drained listener one more); zero on a run without a fault.
    pub accepts: Arc<AtomicU64>,
    /// Pump faults: every stream that broke other than by a clean close
    /// after the peer's fin; zero on a run without a fault.
    pub stream_faults: Arc<AtomicU64>,
}

impl WireStats {
    #[inline]
    pub(crate) fn add_send(&self, bytes: usize) {
        self.send_syscalls.fetch_add(1, Ordering::Relaxed);
        self.send_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add_recv(&self, bytes: usize) {
        self.recv_syscalls.fetch_add(1, Ordering::Relaxed);
        self.recv_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Freeze the counters into a plain-value snapshot.
    pub fn snapshot(&self) -> WireSnapshot {
        WireSnapshot {
            send_syscalls: self.send_syscalls.load(Ordering::Relaxed),
            send_bytes: self.send_bytes.load(Ordering::Relaxed),
            recv_syscalls: self.recv_syscalls.load(Ordering::Relaxed),
            recv_bytes: self.recv_bytes.load(Ordering::Relaxed),
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            pool_misses: self.pool_misses.load(Ordering::Relaxed),
            corked_frames: self.corked_frames.load(Ordering::Relaxed),
            accepts: self.accepts.load(Ordering::Relaxed),
            stream_faults: self.stream_faults.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value snapshot of [`WireStats`], reported as
/// [`crate::env::RunReport::wire_stats`]. All zeros on the in-memory
/// backend (no process boundary is crossed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireSnapshot {
    /// Send-side syscalls that moved ≥1 byte.
    pub send_syscalls: u64,
    /// Bytes accepted by the kernel across all send syscalls.
    pub send_bytes: u64,
    /// Receive-side syscalls that returned ≥1 byte.
    pub recv_syscalls: u64,
    /// Bytes returned across all receive syscalls.
    pub recv_bytes: u64,
    /// Buffers recycled from a pool free list.
    pub pool_hits: u64,
    /// Buffers freshly allocated (pool empty or request oversized).
    pub pool_misses: u64,
    /// Bursts merged into an untransmitted ring frame by the cork.
    pub corked_frames: u64,
    /// `accept` calls on a data listener.
    pub accepts: u64,
    /// Pump faults other than a clean close after the peer's fin.
    pub stream_faults: u64,
}

impl WireSnapshot {
    /// Mean bytes moved per send syscall (0.0 when nothing was sent).
    pub fn send_bytes_per_syscall(&self) -> f64 {
        if self.send_syscalls == 0 {
            0.0
        } else {
            self.send_bytes as f64 / self.send_syscalls as f64
        }
    }
}

/// Transport-wide counters, shared with the CK machines.
#[derive(Debug, Clone, Default)]
pub struct TransportStats {
    /// Packets forwarded by CKS kernels: once per packet, at its origin.
    pub cks_forwards: Arc<AtomicU64>,
    /// Packets forwarded by CKR kernels: once per rank a packet enters.
    pub ckr_forwards: Arc<AtomicU64>,
    /// Packets dropped for lack of a route/port binding (always a bug).
    pub unroutable: Arc<AtomicU64>,
    /// Payload bytes copied on the payload plane (see [`CopyMeter`]).
    pub payload_copies: CopyMeter,
    /// Socket-plane wire counters (see [`WireStats`]).
    pub wire: WireStats,
}

impl TransportStats {
    /// Snapshot `(cks_forwards, ckr_forwards, unroutable)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.cks_forwards.load(Ordering::Relaxed),
            self.ckr_forwards.load(Ordering::Relaxed),
            self.unroutable.load(Ordering::Relaxed),
        )
    }
}
