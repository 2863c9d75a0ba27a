//! Property-based tests for the SMI wire format.

use std::sync::Arc;

use proptest::prelude::*;
use smi_wire::{
    Datatype, Deframer, Frame, Framer, Header, NetworkPacket, PacketOp, PayloadRun, ReduceOp,
    SmiType,
};

fn arb_op() -> impl Strategy<Value = PacketOp> {
    prop::sample::select(PacketOp::ALL.to_vec())
}

/// Drive [`Framer::frame_slice`] the way a credit-window sender does: calls
/// of `splits` sizes (cycled), a grant of `window` elements whenever the
/// window closes (`None`: eager), a flush the caller asks for at every
/// closed window. Checks the frames deframe to `values`, and that runs and
/// partial packets only appear where the caller's end or flush allows.
fn frame_like_a_sender<T: SmiType + PartialEq + std::fmt::Debug>(
    values: &[T],
    max_packets: usize,
    splits: &[usize],
    window: Option<usize>,
) -> Result<(), TestCaseError> {
    let epp = T::DATATYPE.elems_per_packet();
    let mut fr = Framer::new(T::DATATYPE, 1, 2, 3, PacketOp::Send);
    let mut df = Deframer::new(T::DATATYPE);
    let mut out = Vec::with_capacity(values.len());
    let mut drain = |frame: Frame, out: &mut Vec<T>| {
        match frame {
            Frame::Pkt(p) => df.refill(p),
            Frame::Run(r) => df.refill_run(r.payload),
        }
        while let Some(v) = df.pop::<T>() {
            out.push(v);
        }
    };
    let (mut sent, mut credits, mut call) = (0, window.unwrap_or(usize::MAX), 0);
    while sent < values.len() {
        if credits == 0 {
            credits = window.expect("eager never runs dry");
        }
        let to_end = values.len() - sent;
        let avail = splits[call % splits.len()].min(to_end).min(credits);
        call += 1;
        let (take, frame) = fr.frame_slice(&values[sent..sent + avail], to_end, max_packets);
        prop_assert!(take > 0 || avail == 0, "no headway on {avail} elements");
        sent += take;
        credits -= take.min(credits);
        let at_end = sent == values.len();
        if let Some(frame) = frame {
            let elems = frame.elems();
            if let Frame::Run(r) = &frame {
                prop_assert!(r.packet_count() <= max_packets, "run of {elems} elements");
                prop_assert!(at_end || elems % epp == 0, "unaligned run mid-stream");
            } else {
                prop_assert!(at_end || elems == epp, "partial packet mid-stream");
            }
            drain(frame, &mut out);
        }
        if credits == 0 {
            if let Some(p) = fr.flush() {
                drain(Frame::Pkt(p), &mut out);
            }
        }
    }
    prop_assert_eq!(fr.pending(), 0);
    prop_assert_eq!(out.as_slice(), values);
    Ok(())
}

/// Elements as their little-endian bytes: a bit-exact comparison that
/// NaNs pass too.
fn le<T: SmiType>(values: &[T]) -> Vec<u8> {
    let sz = T::DATATYPE.size_bytes();
    let mut bytes = vec![0; values.len() * sz];
    for (v, dst) in values.iter().zip(bytes.chunks_exact_mut(sz)) {
        v.write_le(dst);
    }
    bytes
}

/// Feed two deframers the same segments: `(inline, elems, off, pre)` is an
/// inline packet of `elems % (epp + 1)` elements, or a run of `elems`
/// elements viewed `off` bytes into a shared buffer (the socket receive
/// path), with `pre` elements popped singly from both first. One drains by
/// `pop_slice` calls of the `outs` lengths and then one longer than the
/// segment, the other by `pop`: outputs, counts and `is_empty` must agree
/// after every call, and `pop_slice` must leave `out` past its count alone.
fn span_pop_matches_pop<T: SmiType>(
    noise: &[u8],
    segments: &[(bool, usize, usize, usize)],
    outs: &[usize],
) -> Result<(), TestCaseError> {
    let (sz, epp) = (T::DATATYPE.size_bytes(), T::DATATYPE.elems_per_packet());
    let byte = |i: usize| noise[i % noise.len()];
    let sentinel = T::read_le(&[0xa5; 8][..sz]);
    let mut span = Deframer::new(T::DATATYPE);
    let mut single = Deframer::new(T::DATATYPE);
    for (at, &(inline, elems, off, pre)) in segments.iter().enumerate() {
        if inline {
            let mut p = NetworkPacket::new(0, 1, 0, PacketOp::Send);
            for (i, b) in p.payload.iter_mut().enumerate() {
                *b = byte(at + i);
            }
            p.header.count = (elems % (epp + 1)) as u8;
            span.refill(p);
            single.refill(p);
        } else {
            let buf: Arc<[u8]> = (0..off + elems * sz + 3).map(|i| byte(at + i)).collect();
            let run = PayloadRun::from_shared(buf, off, elems * sz);
            span.refill_run(run.clone());
            single.refill_run(run);
        }
        for _ in 0..pre {
            let (a, b) = (span.pop::<T>(), single.pop::<T>());
            prop_assert_eq!(le(a.as_slice()), le(b.as_slice()));
        }
        for &len in outs.iter().chain([elems + 1].iter()) {
            let mut out = vec![sentinel; len];
            let n = span.pop_slice(&mut out);
            let want: Vec<T> = (0..len).map_while(|_| single.pop::<T>()).collect();
            prop_assert_eq!(n, want.len());
            prop_assert_eq!(le(&out[..n]), le(&want));
            prop_assert_eq!(le(&out[n..]), le(&vec![sentinel; len - n]));
            prop_assert_eq!(span.is_empty(), single.is_empty());
        }
        prop_assert!(span.is_empty(), "a longer-than-segment call drains it");
    }
    Ok(())
}

proptest! {
    /// The span pop is the element-wise pop, for every datatype, on inline
    /// packets and on run views at any offset, after any partial drain and
    /// for any `out` length.
    #[test]
    fn pop_slice_matches_elementwise_pop(
        noise in prop::collection::vec(any::<u8>(), 1..64),
        segments in prop::collection::vec((any::<bool>(), 0usize..40, 0usize..33, 0usize..8), 1..6),
        outs in prop::collection::vec(0usize..50, 0..6),
    ) {
        span_pop_matches_pop::<u8>(&noise, &segments, &outs)?;
        span_pop_matches_pop::<i16>(&noise, &segments, &outs)?;
        span_pop_matches_pop::<i32>(&noise, &segments, &outs)?;
        span_pop_matches_pop::<f32>(&noise, &segments, &outs)?;
        span_pop_matches_pop::<f64>(&noise, &segments, &outs)?;
    }

    /// The one run-or-packet decision, against a credit-window sender's
    /// calls: bytes (28 per packet) and doubles (3 per packet).
    #[test]
    fn frame_slice_splits_like_a_sender(
        count in 0usize..400,
        max_packets in 1usize..=16,
        splits in prop::collection::vec(1usize..80, 1..6),
        window in 0usize..60,
    ) {
        let window = (window > 0).then_some(window);
        let bytes: Vec<u8> = (0..count).map(|i| (i * 7) as u8).collect();
        frame_like_a_sender(&bytes, max_packets, &splits, window)?;
        let doubles: Vec<f64> = (0..count).map(|i| i as f64 * 0.5).collect();
        frame_like_a_sender(&doubles, max_packets, &splits, window)?;
    }

    /// Header pack/unpack is a bijection on valid headers.
    #[test]
    fn header_roundtrip(src: u8, dst: u8, port: u8, op in arb_op(), count in 0u8..=31) {
        let h = Header::new(src, dst, port, op, count).unwrap();
        prop_assert_eq!(Header::unpack(&h.pack()).unwrap(), h);
    }

    /// Unpacking arbitrary 4 bytes either fails (op=7) or re-packs to the
    /// same bytes (no information loss).
    #[test]
    fn header_unpack_total(bytes in prop::array::uniform4(any::<u8>())) {
        match Header::unpack(&bytes) {
            Ok(h) => prop_assert_eq!(h.pack(), bytes),
            Err(_) => prop_assert_eq!(bytes[3] >> 5, 7),
        }
    }

    /// Full packet pack/unpack roundtrip.
    #[test]
    fn packet_roundtrip(
        src: u8, dst: u8, port: u8, op in arb_op(), count in 0u8..=31,
        payload in prop::array::uniform28(any::<u8>()),
    ) {
        let mut p = NetworkPacket::new(src, dst, port, op);
        p.header.count = count;
        p.payload = payload;
        let bytes = p.pack();
        prop_assert_eq!(NetworkPacket::unpack(&bytes).unwrap(), p);
    }

    /// Framing then deframing any f32 message reproduces it exactly, and
    /// uses exactly ceil(n/7) packets with correct counts.
    #[test]
    fn frame_deframe_f32(elems in prop::collection::vec(any::<f32>(), 0..200)) {
        let mut fr = Framer::new(Datatype::Float, 3, 4, 1, PacketOp::Send);
        let mut pkts = Vec::new();
        for e in &elems {
            pkts.extend(fr.push(e));
        }
        pkts.extend(fr.flush());
        prop_assert_eq!(pkts.len(), Datatype::Float.packets_for(elems.len()));
        let total: usize = pkts.iter().map(|p| p.header.count as usize).sum();
        prop_assert_eq!(total, elems.len());

        let mut df = Deframer::new(Datatype::Float);
        let mut out = Vec::with_capacity(elems.len());
        for p in &pkts {
            df.refill(*p);
            while let Some(v) = df.pop::<f32>() {
                out.push(v);
            }
        }
        // Compare bit patterns so NaNs round-trip too.
        let a: Vec<u32> = elems.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(a, b);
    }

    /// Same framing roundtrip for doubles (3 per packet, exercises the
    /// packet-boundary arithmetic for the odd element size).
    #[test]
    fn frame_deframe_f64(elems in prop::collection::vec(any::<f64>(), 0..100)) {
        let mut fr = Framer::new(Datatype::Double, 0, 1, 0, PacketOp::Bcast);
        let mut pkts = Vec::new();
        for e in &elems {
            pkts.extend(fr.push(e));
        }
        pkts.extend(fr.flush());
        let mut df = Deframer::new(Datatype::Double);
        let mut out = Vec::new();
        for p in &pkts {
            df.refill(*p);
            while let Some(v) = df.pop::<f64>() {
                out.push(v);
            }
        }
        let a: Vec<u64> = elems.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(a, b);
    }

    /// Byte-level reduce fold agrees with the typed apply for i32.
    #[test]
    fn reduce_bytes_matches_typed_i32(
        xs in prop::collection::vec(any::<i32>(), 1..50),
        ys_seed in prop::collection::vec(any::<i32>(), 1..50),
        op in prop::sample::select(ReduceOp::ALL.to_vec()),
    ) {
        let n = xs.len().min(ys_seed.len());
        let xs = &xs[..n];
        let ys = &ys_seed[..n];
        let mut acc: Vec<u8> = xs.iter().flat_map(|v| v.to_le_bytes()).collect();
        let contrib: Vec<u8> = ys.iter().flat_map(|v| v.to_le_bytes()).collect();
        op.fold_bytes(Datatype::Int, &mut acc, &contrib);
        let got: Vec<i32> = acc.chunks_exact(4).map(i32::read_le).collect();
        let want: Vec<i32> = xs.iter().zip(ys).map(|(&a, &b)| op.apply(a, b)).collect();
        prop_assert_eq!(got, want);
    }

    /// Reduce is associative on integers (hardware tiling order must not
    /// change the result).
    #[test]
    fn reduce_i32_associative(a: i32, b: i32, c: i32, op in prop::sample::select(ReduceOp::ALL.to_vec())) {
        prop_assert_eq!(
            op.apply(op.apply(a, b), c),
            op.apply(a, op.apply(b, c))
        );
    }
}
