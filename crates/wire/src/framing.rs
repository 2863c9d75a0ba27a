//! Message framing: packing an element stream into packets and back.
//!
//! This is the logic inside `SMI_Push` and `SMI_Pop` (§4.2): "Push internally
//! accumulates data items until a network packet is full. The packet is then
//! forwarded to CKS […] Pop internally unpacks data returned from CKR, and
//! transmits it to the application one element at a time."
//!
//! That is the width of [`Deframer::pop`]. The bulk [`Deframer::pop_slice`]
//! moves a span instead: one bounds-checked byte range per call, converted
//! in a single loop the compiler can vectorise.

use crate::run::{Frame, PacketRun, PayloadRun};
use crate::{Datatype, NetworkPacket, PacketOp, SmiType};

/// Accumulates pushed elements into outgoing packets.
///
/// A `Framer` is created per open send-side channel with the channel's header
/// template (src/dst/port/op). Elements are appended with [`Framer::push`];
/// whenever the payload fills up, a finished packet is returned. The final,
/// possibly partial packet is obtained from [`Framer::flush`].
#[derive(Debug, Clone)]
pub struct Framer {
    dtype: Datatype,
    elems_per_packet: usize,
    current: NetworkPacket,
    filled: usize,
}

impl Framer {
    /// New framer for a channel sending `dtype` elements from `src` to
    /// `dst`:`port` tagged with `op`.
    pub fn new(dtype: Datatype, src: u8, dst: u8, port: u8, op: PacketOp) -> Self {
        Framer {
            dtype,
            elems_per_packet: dtype.elems_per_packet(),
            current: NetworkPacket::new(src, dst, port, op),
            filled: 0,
        }
    }

    /// The datatype this framer was created with.
    #[inline]
    pub fn dtype(&self) -> Datatype {
        self.dtype
    }

    /// Append one element. Returns a completed packet when the payload fills.
    ///
    /// Panics in debug builds if `T` does not match the channel datatype;
    /// the typed channel API makes a mismatch unrepresentable, and the
    /// untyped path ([`Framer::push_bytes`]) re-checks sizes.
    #[inline]
    pub fn push<T: SmiType>(&mut self, value: &T) -> Option<NetworkPacket> {
        debug_assert_eq!(T::DATATYPE.size_bytes(), self.dtype.size_bytes());
        self.current.write_elem(self.filled, value);
        self.filled += 1;
        self.maybe_complete()
    }

    /// Append one element given as raw little-endian bytes (used by untyped
    /// transport paths; `bytes.len()` must equal the element size).
    #[inline]
    pub fn push_bytes(&mut self, bytes: &[u8]) -> Option<NetworkPacket> {
        let sz = self.dtype.size_bytes();
        assert_eq!(bytes.len(), sz, "element byte size mismatch");
        let off = self.filled * sz;
        self.current.payload[off..off + sz].copy_from_slice(bytes);
        self.filled += 1;
        self.maybe_complete()
    }

    /// Append up to one packet's worth of elements from `values`, returning
    /// `(consumed, completed_packet)`. The bulk analogue of [`Framer::push`]:
    /// callers loop until the slice is drained, collecting completed packets
    /// into bursts.
    #[inline]
    pub fn push_slice<T: SmiType>(&mut self, values: &[T]) -> (usize, Option<NetworkPacket>) {
        debug_assert_eq!(T::DATATYPE.size_bytes(), self.dtype.size_bytes());
        let take = (self.elems_per_packet - self.filled).min(values.len());
        for v in &values[..take] {
            self.current.write_elem(self.filled, v);
            self.filled += 1;
        }
        (take, self.maybe_complete())
    }

    /// Frame the head of `values` into at most one frame, returning
    /// `(consumed, frame)` — the one place a sender decides between a run
    /// and a packet:
    ///
    /// * with no packet pending and a packet's worth of elements, a span of
    ///   up to `max_packets` packets becomes one refcounted [`Frame::Run`]
    ///   (the single payload copy of the zero-copy plane), trimmed to whole
    ///   packets unless it reaches the caller's end;
    /// * otherwise the elements fill the pending packet, returned once full.
    ///
    /// `to_end` counts the elements left before the caller's end (a message
    /// or member-block end; `values.len() <= to_end`). The partial packet is
    /// flushed there, so a partial packet only ever closes such an end —
    /// or a span the caller ends itself with [`Framer::flush`].
    pub fn frame_slice<T: SmiType>(
        &mut self,
        values: &[T],
        to_end: usize,
        max_packets: usize,
    ) -> (usize, Option<Frame>) {
        debug_assert!(values.len() <= to_end, "framing past the caller's end");
        let epp = self.elems_per_packet;
        if self.filled == 0 && values.len() >= epp {
            let mut take = values.len().min(max_packets.max(1).saturating_mul(epp));
            if take < to_end {
                take -= take % epp;
            }
            let h = self.current.header;
            let run = PacketRun::from_elems(h.src, h.dst, h.port, h.op, &values[..take]);
            return (take, Some(Frame::Run(run)));
        }
        let (take, full) = self.push_slice(values);
        let pkt = if take == to_end {
            full.or_else(|| self.flush())
        } else {
            full
        };
        (take, pkt.map(Frame::Pkt))
    }

    #[inline]
    fn maybe_complete(&mut self) -> Option<NetworkPacket> {
        if self.filled == self.elems_per_packet {
            Some(self.take_packet())
        } else {
            None
        }
    }

    /// Emit the in-progress packet if it holds any elements (the final,
    /// partial packet of a message).
    #[inline]
    pub fn flush(&mut self) -> Option<NetworkPacket> {
        if self.filled > 0 {
            Some(self.take_packet())
        } else {
            None
        }
    }

    /// Number of elements accumulated in the unfinished packet.
    #[inline]
    pub fn pending(&self) -> usize {
        self.filled
    }

    fn take_packet(&mut self) -> NetworkPacket {
        let mut pkt = self.current;
        pkt.header.count = self.filled as u8;
        self.filled = 0;
        self.current.payload = [0; crate::PAYLOAD_BYTES];
        pkt
    }
}

/// The current element segment a [`Deframer`] is draining: one inline
/// packet's payload, or a refcounted run view of any length.
#[derive(Debug, Clone)]
enum Segment {
    /// An inline packet (the copying path: the packet struct was copied in).
    Inline(NetworkPacket),
    /// A refcounted run view (the zero-copy path: no payload bytes moved).
    Run(PayloadRun),
}

/// Unpacks received packets back into an element stream.
///
/// Elements are consumed one at a time with [`Deframer::pop`]; a new packet
/// is fed in with [`Deframer::refill`] — or a whole refcounted run with
/// [`Deframer::refill_run`] — whenever the deframer runs
/// [`Deframer::is_empty`].
#[derive(Debug, Clone)]
pub struct Deframer {
    dtype: Datatype,
    seg: Segment,
    next: usize,
    valid: usize,
}

impl Deframer {
    /// New, empty deframer for `dtype` elements.
    pub fn new(dtype: Datatype) -> Self {
        Deframer {
            dtype,
            seg: Segment::Inline(NetworkPacket::new(0, 0, 0, PacketOp::Send)),
            next: 0,
            valid: 0,
        }
    }

    /// The datatype this deframer was created with.
    #[inline]
    pub fn dtype(&self) -> Datatype {
        self.dtype
    }

    /// True when all valid elements of the current segment have been popped.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.next == self.valid
    }

    /// Load the next packet. Panics if the previous segment was not drained —
    /// SMI guarantees in-order delivery, so the transport never overwrites
    /// undelivered elements.
    pub fn refill(&mut self, packet: NetworkPacket) {
        assert!(self.is_empty(), "refill with undrained elements");
        self.valid = packet.header.count as usize;
        self.seg = Segment::Inline(packet);
        self.next = 0;
    }

    /// Load a whole payload run as the next segment (the zero-copy path:
    /// only the `Arc` handle moves). Panics if the previous segment was not
    /// drained, like [`Deframer::refill`].
    pub fn refill_run(&mut self, run: PayloadRun) {
        assert!(self.is_empty(), "refill with undrained elements");
        let sz = self.dtype.size_bytes();
        debug_assert_eq!(run.len() % sz, 0, "run not element-aligned");
        self.valid = run.len() / sz;
        self.seg = Segment::Run(run);
        self.next = 0;
    }

    /// Read element `i` of the current segment.
    #[inline]
    fn read_elem<T: SmiType>(&self, i: usize) -> T {
        match &self.seg {
            Segment::Inline(p) => p.read_elem::<T>(i),
            Segment::Run(r) => {
                let sz = self.dtype.size_bytes();
                T::read_le(&r.as_slice()[i * sz..(i + 1) * sz])
            }
        }
    }

    /// Pop the next element, or `None` if the current segment is drained.
    #[inline]
    pub fn pop<T: SmiType>(&mut self) -> Option<T> {
        debug_assert_eq!(T::DATATYPE.size_bytes(), self.dtype.size_bytes());
        if self.is_empty() {
            return None;
        }
        let v = self.read_elem::<T>(self.next);
        self.next += 1;
        Some(v)
    }

    /// Pop up to `out.len()` elements into `out`, returning how many were
    /// written (bounded by the valid remainder of the current segment). The
    /// bulk analogue of [`Deframer::pop`]: the segment is matched and its
    /// byte span sliced once per call, then converted in one loop.
    #[inline]
    pub fn pop_slice<T: SmiType>(&mut self, out: &mut [T]) -> usize {
        debug_assert_eq!(T::DATATYPE.size_bytes(), self.dtype.size_bytes());
        let sz = T::DATATYPE.size_bytes();
        let n = (self.valid - self.next).min(out.len());
        let bytes = match &self.seg {
            Segment::Inline(p) => &p.payload[..],
            Segment::Run(r) => r.as_slice(),
        };
        let span = &bytes[self.next * sz..(self.next + n) * sz];
        for (slot, src) in out[..n].iter_mut().zip(span.chunks_exact(sz)) {
            *slot = T::read_le(src);
        }
        self.next += n;
        n
    }

    /// Pop the next element as raw little-endian bytes into `dst`.
    #[inline]
    pub fn pop_bytes(&mut self, dst: &mut [u8]) -> bool {
        let sz = self.dtype.size_bytes();
        assert_eq!(dst.len(), sz, "element byte size mismatch");
        if self.is_empty() {
            return false;
        }
        let off = self.next * sz;
        match &self.seg {
            Segment::Inline(p) => dst.copy_from_slice(&p.payload[off..off + sz]),
            Segment::Run(r) => dst.copy_from_slice(&r.as_slice()[off..off + sz]),
        }
        self.next += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_all<T: SmiType>(elems: &[T]) -> Vec<NetworkPacket> {
        let mut fr = Framer::new(T::DATATYPE, 0, 1, 0, PacketOp::Send);
        let mut pkts = Vec::new();
        for e in elems {
            if let Some(p) = fr.push(e) {
                pkts.push(p);
            }
        }
        if let Some(p) = fr.flush() {
            pkts.push(p);
        }
        pkts
    }

    fn deframe_all<T: SmiType>(pkts: &[NetworkPacket], n: usize) -> Vec<T> {
        let mut df = Deframer::new(T::DATATYPE);
        let mut out = Vec::with_capacity(n);
        let mut it = pkts.iter();
        while out.len() < n {
            if df.is_empty() {
                df.refill(*it.next().expect("enough packets"));
            }
            out.push(df.pop::<T>().expect("element available"));
        }
        out
    }

    #[test]
    fn floats_pack_seven_per_packet() {
        let elems: Vec<f32> = (0..23).map(|i| i as f32).collect();
        let pkts = frame_all(&elems);
        // 23 floats -> 3 full packets of 7 + 1 partial of 2.
        assert_eq!(pkts.len(), 4);
        assert_eq!(pkts[0].header.count, 7);
        assert_eq!(pkts[3].header.count, 2);
        assert_eq!(deframe_all::<f32>(&pkts, 23), elems);
    }

    #[test]
    fn exact_multiple_has_no_partial_packet() {
        let elems: Vec<i32> = (0..14).collect();
        let pkts = frame_all(&elems);
        assert_eq!(pkts.len(), 2);
        assert!(pkts.iter().all(|p| p.header.count == 7));
    }

    #[test]
    fn single_element_message() {
        let elems = [42.0f64];
        let pkts = frame_all(&elems);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].header.count, 1);
        assert_eq!(deframe_all::<f64>(&pkts, 1), elems);
    }

    #[test]
    fn header_fields_propagate() {
        let mut fr = Framer::new(Datatype::Int, 5, 2, 9, PacketOp::Gather);
        let p = loop {
            if let Some(p) = fr.push(&1i32) {
                break p;
            }
        };
        assert_eq!(p.header.src, 5);
        assert_eq!(p.header.dst, 2);
        assert_eq!(p.header.port, 9);
        assert_eq!(p.header.op, PacketOp::Gather);
    }

    #[test]
    fn bytes_interface_matches_typed() {
        let mut fr_t = Framer::new(Datatype::Short, 0, 1, 0, PacketOp::Send);
        let mut fr_b = Framer::new(Datatype::Short, 0, 1, 0, PacketOp::Send);
        let mut out_t = Vec::new();
        let mut out_b = Vec::new();
        for i in 0..30i16 {
            if let Some(p) = fr_t.push(&i) {
                out_t.push(p);
            }
            if let Some(p) = fr_b.push_bytes(&i.to_le_bytes()) {
                out_b.push(p);
            }
        }
        out_t.extend(fr_t.flush());
        out_b.extend(fr_b.flush());
        assert_eq!(out_t, out_b);
    }

    #[test]
    fn slice_framing_matches_elementwise() {
        let elems: Vec<i32> = (0..40).collect();
        let mut fr = Framer::new(Datatype::Int, 0, 1, 0, PacketOp::Send);
        let mut pkts = Vec::new();
        let mut i = 0;
        while i < elems.len() {
            let (k, p) = fr.push_slice(&elems[i..]);
            assert!(k > 0);
            i += k;
            pkts.extend(p);
        }
        pkts.extend(fr.flush());
        assert_eq!(pkts, frame_all(&elems));
        // Bulk deframing round-trips too.
        let mut df = Deframer::new(Datatype::Int);
        let mut out = vec![0i32; 40];
        let mut filled = 0;
        let mut it = pkts.iter();
        while filled < out.len() {
            if df.is_empty() {
                df.refill(*it.next().expect("enough packets"));
            }
            filled += df.pop_slice(&mut out[filled..]);
        }
        assert_eq!(out, elems);
    }

    #[test]
    #[should_panic(expected = "undrained")]
    fn refill_undrained_panics() {
        let mut df = Deframer::new(Datatype::Float);
        let mut fr = Framer::new(Datatype::Float, 0, 1, 0, PacketOp::Send);
        fr.push(&1.0f32);
        let p = fr.flush().unwrap();
        df.refill(p);
        df.refill(p); // still holds one element
    }

    #[test]
    fn zero_length_slices_are_noops() {
        let mut fr = Framer::new(Datatype::Int, 0, 1, 0, PacketOp::Send);
        let (consumed, pkt) = fr.push_slice::<i32>(&[]);
        assert_eq!(consumed, 0);
        assert!(pkt.is_none());
        assert_eq!(fr.pending(), 0);
        assert!(fr.flush().is_none(), "nothing staged, nothing flushed");

        let mut df = Deframer::new(Datatype::Int);
        let mut out: [i32; 0] = [];
        assert_eq!(df.pop_slice(&mut out), 0);
        // A partially-filled deframer also writes nothing into an empty out.
        df.refill(frame_all(&[5i32])[0]);
        assert_eq!(df.pop_slice(&mut out), 0);
        assert_eq!(df.pop::<i32>(), Some(5));
    }

    #[test]
    fn partial_final_packet_bounds_valid_elements() {
        // 16 ints -> 7 + 7 + 2: the final partial packet must deliver
        // exactly 2 elements even though the payload has room for 7.
        let elems: Vec<i32> = (100..116).collect();
        let pkts = frame_all(&elems);
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[2].header.count, 2);
        let mut df = Deframer::new(Datatype::Int);
        df.refill(pkts[2]);
        let mut out = vec![0i32; 7];
        assert_eq!(df.pop_slice(&mut out), 2);
        assert_eq!(&out[..2], &elems[14..16]);
        assert!(df.is_empty());
        assert_eq!(df.pop::<i32>(), None);
    }

    #[test]
    fn run_refill_matches_packet_refill() {
        let elems: Vec<f32> = (0..23).map(|i| i as f32 * 1.5).collect();
        let pkts = frame_all(&elems);
        let run = crate::PacketRun::from_elems(0, 1, 0, PacketOp::Send, &elems);
        let via_pkts = deframe_all::<f32>(&pkts, 23);
        let mut df = Deframer::new(Datatype::Float);
        df.refill_run(run.payload);
        let mut via_run = vec![0.0f32; 23];
        let mut filled = 0;
        while filled < via_run.len() {
            filled += df.pop_slice(&mut via_run[filled..]);
        }
        assert_eq!(via_run, via_pkts);
    }

    #[test]
    #[should_panic(expected = "undrained")]
    fn refill_run_undrained_panics() {
        let mut df = Deframer::new(Datatype::Char);
        df.refill_run(crate::PayloadRun::from_bytes(&[1, 2, 3]));
        df.refill_run(crate::PayloadRun::from_bytes(&[4]));
    }

    #[test]
    fn chars_pack_28_per_packet() {
        let elems: Vec<u8> = (0..57).collect();
        let pkts = frame_all(&elems);
        assert_eq!(pkts.len(), 3); // 28 + 28 + 1
        assert_eq!(pkts[2].header.count, 1);
        assert_eq!(deframe_all::<u8>(&pkts, 57), elems);
    }
}
