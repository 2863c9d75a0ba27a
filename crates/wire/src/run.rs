//! Refcounted payload runs: the zero-copy unit of the payload plane.
//!
//! The paper sizes [`NetworkPacket`]s to the network I/O width precisely so
//! payload data streams through the fabric without staging (§4.1). A software
//! reproduction that memcpys 32-byte packets at every hop loses that
//! property, so bulk senders wrap a whole slice of elements into one
//! refcounted buffer — a [`PayloadRun`] — and the fabric forwards
//! [`PacketRun`] *views* of it (`Arc` clones) instead of packet-by-packet
//! copies. Only the boundaries that semantically require a copy touch the
//! bytes again: draining elements into the consumer's slice, serializing
//! onto a socket, or materializing individual packets for packet-oriented
//! consumers.
//!
//! A [`Frame`] is what transport bursts actually carry: either a single
//! inline packet (control traffic, partial tails, per-element pushes) or a
//! run view.

use std::sync::Arc;

use crate::{Datatype, Header, NetworkPacket, PacketOp, SmiType, MAX_COUNT};

/// An immutable, refcounted byte buffer holding the little-endian payload of
/// a contiguous element run, with an offset/length view. Cloning (and
/// sub-slicing via [`PayloadRun::slice`]) is O(1) and copies no payload
/// bytes; the single copy happens when the run is created from caller data.
#[derive(Debug, Clone)]
pub struct PayloadRun {
    buf: Arc<[u8]>,
    off: usize,
    len: usize,
}

impl PayloadRun {
    /// Wrap a byte slice into a fresh refcounted buffer (one copy — the
    /// last one the in-memory plane needs).
    pub fn from_bytes(bytes: &[u8]) -> PayloadRun {
        PayloadRun {
            buf: Arc::from(bytes),
            off: 0,
            len: bytes.len(),
        }
    }

    /// Serialize a slice of elements into a fresh refcounted buffer
    /// (little-endian, tightly packed — no per-packet padding).
    pub fn from_elems<T: SmiType>(values: &[T]) -> PayloadRun {
        let sz = T::DATATYPE.size_bytes();
        let mut buf = vec![0u8; values.len() * sz];
        for (i, v) in values.iter().enumerate() {
            v.write_le(&mut buf[i * sz..(i + 1) * sz]);
        }
        PayloadRun {
            buf: buf.into(),
            off: 0,
            len: values.len() * sz,
        }
    }

    /// Number of payload bytes in this view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view holds no bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The viewed bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.off..self.off + self.len]
    }

    /// View `len` bytes starting at `off` of an existing shared buffer —
    /// no copy at all. This is the receive-side zero-copy constructor: a
    /// socket pump that read a frame into a pooled `Arc<[u8]>` block hands
    /// the payload span straight to the deframer as a run view, pinning the
    /// block alive until every consumer drained it.
    pub fn from_shared(buf: Arc<[u8]>, off: usize, len: usize) -> PayloadRun {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= buf.len()),
            "shared view out of bounds"
        );
        PayloadRun { buf, off, len }
    }

    /// A sub-view of `len` bytes starting at `off` (relative to this view).
    /// Shares the underlying buffer — no copy.
    pub fn slice(&self, off: usize, len: usize) -> PayloadRun {
        assert!(off + len <= self.len, "sub-view out of bounds");
        PayloadRun {
            buf: self.buf.clone(),
            off: self.off + off,
            len,
        }
    }
}

/// A run of data packets sharing one header template and one refcounted
/// payload buffer: the zero-copy equivalent of `packet_count()` consecutive
/// [`NetworkPacket`]s from the same sender to the same destination.
///
/// The header's `count` field is ignored; per-packet valid counts are
/// derived from the payload length when a packet is materialized with
/// [`PacketRun::packet`]. Payload bytes are tightly packed (element `i`
/// lives at byte `i × size`), which is equivalent to the packet layout
/// because packets never split elements.
#[derive(Debug, Clone)]
pub struct PacketRun {
    /// Header template stamped onto every materialized packet.
    pub header: Header,
    /// Element type of the payload.
    pub dtype: Datatype,
    /// The shared payload bytes.
    pub payload: PayloadRun,
}

impl PacketRun {
    /// Build a run carrying `values` with the given routing header fields.
    pub fn from_elems<T: SmiType>(
        src: u8,
        dst: u8,
        port: u8,
        op: PacketOp,
        values: &[T],
    ) -> PacketRun {
        debug_assert!(op.carries_data(), "control ops never form runs");
        PacketRun {
            header: Header {
                src,
                dst,
                port,
                op,
                count: 0,
            },
            dtype: T::DATATYPE,
            payload: PayloadRun::from_elems(values),
        }
    }

    /// Number of elements carried by the run.
    #[inline]
    pub fn elems(&self) -> usize {
        self.payload.len() / self.dtype.size_bytes()
    }

    /// Number of [`NetworkPacket`]s this run stands for.
    #[inline]
    pub fn packet_count(&self) -> usize {
        self.dtype.packets_for(self.elems())
    }

    /// Materialize packet `i` of the run (copies up to one payload's worth
    /// of bytes — the packet-oriented fallback path).
    pub fn packet(&self, i: usize) -> NetworkPacket {
        let epp = self.dtype.elems_per_packet();
        let sz = self.dtype.size_bytes();
        let total = self.elems();
        let first = i * epp;
        assert!(first < total, "run packet index out of bounds");
        let n = epp.min(total - first);
        debug_assert!(n <= MAX_COUNT);
        let mut pkt = NetworkPacket::new(
            self.header.src,
            self.header.dst,
            self.header.port,
            self.header.op,
        );
        pkt.header.count = n as u8;
        let bytes = &self.payload.as_slice()[first * sz..(first + n) * sz];
        pkt.payload[..bytes.len()].copy_from_slice(bytes);
        pkt
    }

    /// The same run re-addressed to `dst` (an `Arc` clone — no payload
    /// copy). This is what tree fan-out uses to stamp per-child routes.
    pub fn with_dst(&self, dst: u8) -> PacketRun {
        let mut run = self.clone();
        run.header.dst = dst;
        run
    }
}

/// The unit carried by transport bursts: one inline packet or one run view.
///
/// Control packets (`Sync`/`Credit`) and the copying baseline path travel as
/// [`Frame::Pkt`]; zero-copy bulk data travels as [`Frame::Run`]. Routing
/// only ever inspects the header, which both variants expose uniformly via
/// [`Frame::header`].
#[derive(Debug, Clone)]
pub enum Frame {
    /// A single inline packet (52 bytes moved per hop).
    Pkt(NetworkPacket),
    /// A refcounted run view (pointer-sized moves per hop, any length).
    Run(PacketRun),
}

impl Frame {
    /// The routing header (template header for runs).
    #[inline]
    pub fn header(&self) -> &Header {
        match self {
            Frame::Pkt(p) => &p.header,
            Frame::Run(r) => &r.header,
        }
    }

    /// The routing header, to re-stamp a route in place (a run's payload
    /// stays shared).
    #[inline]
    pub fn header_mut(&mut self) -> &mut Header {
        match self {
            Frame::Pkt(p) => &mut p.header,
            Frame::Run(r) => &mut r.header,
        }
    }

    /// Number of wire packets this frame stands for.
    #[inline]
    pub fn packet_count(&self) -> usize {
        match self {
            Frame::Pkt(_) => 1,
            Frame::Run(r) => r.packet_count(),
        }
    }

    /// Number of data elements carried (0 for control packets).
    #[inline]
    pub fn elems(&self) -> usize {
        match self {
            Frame::Pkt(p) => {
                if p.header.op.carries_data() {
                    p.header.count as usize
                } else {
                    0
                }
            }
            Frame::Run(r) => r.elems(),
        }
    }
}

impl From<NetworkPacket> for Frame {
    fn from(p: NetworkPacket) -> Frame {
        Frame::Pkt(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Deframer, Framer};

    #[test]
    fn run_materializes_same_packets_as_framer() {
        let elems: Vec<f64> = (0..10).map(|i| i as f64 * 0.5).collect();
        let run = PacketRun::from_elems(2, 5, 1, PacketOp::Send, &elems);
        assert_eq!(run.elems(), 10);
        assert_eq!(run.packet_count(), 4); // 3 + 3 + 3 + 1

        let mut fr = Framer::new(Datatype::Double, 2, 5, 1, PacketOp::Send);
        let mut pkts = Vec::new();
        for e in &elems {
            pkts.extend(fr.push(e));
        }
        pkts.extend(fr.flush());
        let from_run: Vec<NetworkPacket> = (0..run.packet_count()).map(|i| run.packet(i)).collect();
        assert_eq!(from_run, pkts);
    }

    #[test]
    fn sub_views_share_bytes_without_copy() {
        let bytes: Vec<u8> = (0..100).collect();
        let run = PayloadRun::from_bytes(&bytes);
        let view = run.slice(10, 20);
        assert_eq!(view.as_slice(), &bytes[10..30]);
        let nested = view.slice(5, 5);
        assert_eq!(nested.as_slice(), &bytes[15..20]);
    }

    #[test]
    fn re_addressing_changes_only_dst() {
        let run = PacketRun::from_elems(0, 1, 3, PacketOp::Bcast, &[7i32, 8, 9]);
        let re = run.with_dst(6);
        assert_eq!(re.header.dst, 6);
        assert_eq!(re.header.src, 0);
        assert_eq!(re.packet(0).header.dst, 6);
        assert_eq!(re.packet(0).read_elem::<i32>(2), 9);
    }

    #[test]
    fn frame_accessors_cover_both_variants() {
        let pkt = NetworkPacket::control(1, 2, 0, PacketOp::Credit, 64);
        let f: Frame = pkt.into();
        assert_eq!(f.packet_count(), 1);
        assert_eq!(f.elems(), 0); // control carries no data
        let run = Frame::Run(PacketRun::from_elems(1, 2, 0, PacketOp::Send, &[1u8; 57]));
        assert_eq!(run.header().dst, 2);
        assert_eq!(run.packet_count(), 3); // 28 + 28 + 1
        assert_eq!(run.elems(), 57);
    }

    #[test]
    fn deframer_pops_runs_without_packets() {
        let elems: Vec<i16> = (0..40).collect();
        let run = PacketRun::from_elems(0, 1, 0, PacketOp::Send, &elems);
        let mut df = Deframer::new(Datatype::Short);
        df.refill_run(run.payload);
        let mut out = vec![0i16; 40];
        let mut filled = 0;
        while filled < out.len() {
            filled += df.pop_slice(&mut out[filled..]);
        }
        assert_eq!(out, elems);
        assert!(df.is_empty());
    }

    #[test]
    fn empty_elem_slice_builds_empty_run() {
        let run = PacketRun::from_elems::<i32>(0, 1, 0, PacketOp::Send, &[]);
        assert_eq!(run.elems(), 0);
        assert_eq!(run.packet_count(), 0);
    }
}
