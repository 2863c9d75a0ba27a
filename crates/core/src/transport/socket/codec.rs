//! The socket wire codec: pure `Burst ↔ bytes`, with no I/O and no state.
//!
//! The wire is a stream of frames, each a 16-byte [`FrameHeader`]
//! `[src_rank u16 LE][src_qsfp u16 LE][len u32 LE][seq u64 LE]` plus a
//! body. The `(src_rank, src_qsfp)` tag is the *sender-side* endpoint of the
//! topology edge the burst travels, which is all the receiver needs to
//! demux the frame onto the right CKR input; `seq` numbers data frames
//! 1, 2, 3… per connection.
//!
//! * **Data frames** set bit 31 of `len` ([`V3_FLAG`]); the low 31 bits are
//!   the body *byte length*. The body is a sequence of typed items —
//!   [`V3_ITEM_PKT`] (one 32-byte packed packet, [`NetworkPacket::pack`]) or
//!   [`V3_ITEM_RUN`] (`[dtype u8][4-byte packed header][nbytes u32 LE]` +
//!   densely packed payload). Run payloads are appended with one `memcpy`
//!   at encode time and decoded into [`PayloadRun`] *views* of the pooled
//!   receive block, so each payload byte is copied exactly once per
//!   boundary crossing. A data frame without the flag is stream corruption.
//! * [`HELLO_RANK`] in `src_rank` — handshake frame (`len` = process index,
//!   `src_qsfp` bit 0 = resume flag, `seq` = session id, plus an 8-byte
//!   body carrying the sender's last contiguously received seq).
//! * [`ACK_RANK`] in `src_rank` — cumulative ack (`seq` = highest
//!   contiguous seq received, no body).
//! * [`FIN_RANK`] in `src_rank` — end of stream: its sender writes nothing
//!   after it (no body; every other field 0).

use std::io;
use std::sync::Arc;

use smi_wire::{Datatype, Frame, Header, NetworkPacket, PacketRun, PayloadRun, PACKET_BYTES};

use crate::transport::Burst;

/// Bytes of a [`FrameHeader`].
pub(crate) const FRAME_HEADER_BYTES: usize = 16;

/// `src_rank` sentinel marking a hello (handshake) frame.
pub(crate) const HELLO_RANK: u16 = u16::MAX;

/// `src_rank` sentinel marking a cumulative-ack frame.
pub(crate) const ACK_RANK: u16 = u16::MAX - 1;

/// `src_rank` sentinel marking the end-of-stream frame.
pub(crate) const FIN_RANK: u16 = u16::MAX - 2;

/// Total bytes of a hello frame (header + 8-byte `last_recv` body).
pub(crate) const HELLO_BYTES: usize = FRAME_HEADER_BYTES + 8;

/// Bit flag in the `len` header field that every data frame sets.
pub(crate) const V3_FLAG: u32 = 1 << 31;

/// Item kind byte: one 32-byte packed packet follows.
pub(crate) const V3_ITEM_PKT: u8 = 0;

/// Item kind byte: a dense run follows.
pub(crate) const V3_ITEM_RUN: u8 = 1;

/// Fixed bytes of a run item before its payload.
pub(crate) const V3_RUN_ITEM_HEADER: usize = 1 + 1 + 4 + 4;

/// Capacity of each pooled receive block. Encode-side splitting keeps
/// every frame smaller than this, so a whole frame always fits one block
/// and run payloads can be handed out as views of it.
pub(crate) const RECV_BLOCK_CAP: usize = 256 * 1024;

/// Sanity bound on a frame body; our own encoder splits at
/// [`FRAME_SPLIT_BYTES`], so anything larger is stream corruption.
const MAX_FRAME_BODY_BYTES: usize = RECV_BLOCK_CAP - FRAME_HEADER_BYTES;

/// Encode-side split threshold: a burst whose body would exceed this
/// is chunked into multiple frames (each with its own seq).
pub(crate) const FRAME_SPLIT_BYTES: usize = 64 * 1024;

/// The one layout of the 16-byte header every frame starts with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrameHeader {
    /// `(src_rank, src_qsfp)`: a data frame's sender-side endpoint. A
    /// [`HELLO_RANK`] or [`ACK_RANK`] rank marks a control frame; a hello's
    /// `src_qsfp` carries its flags (bit 0 = resume).
    pub tag: (u16, u16),
    /// The top bit of the `len` field: [`V3_FLAG`] on every data frame.
    pub flags: u32,
    /// The low 31 bits of the `len` field: a data frame's body bytes, a
    /// hello's process index.
    pub len: u32,
    /// A data frame's seq, a hello's session id, an ack's acked seq.
    pub seq: u64,
}

impl FrameHeader {
    /// Parse the header at the front of `b`; `None` while fewer than
    /// [`FRAME_HEADER_BYTES`] are there.
    pub fn parse(b: &[u8]) -> Option<FrameHeader> {
        let b = b.get(..FRAME_HEADER_BYTES)?;
        let u16_at = |i: usize| u16::from_le_bytes([b[i], b[i + 1]]);
        let field = u32::from_le_bytes(b[4..8].try_into().expect("4 bytes"));
        Some(FrameHeader {
            tag: (u16_at(0), u16_at(2)),
            flags: field & V3_FLAG,
            len: field & !V3_FLAG,
            seq: u64::from_le_bytes(b[8..16].try_into().expect("8 bytes")),
        })
    }

    /// Write the header over the front of `out`.
    pub fn write(&self, out: &mut [u8]) {
        out[..2].copy_from_slice(&self.tag.0.to_le_bytes());
        out[2..4].copy_from_slice(&self.tag.1.to_le_bytes());
        out[4..8].copy_from_slice(&(self.flags | self.len).to_le_bytes());
        out[8..16].copy_from_slice(&self.seq.to_le_bytes());
    }

    /// Append the header to `out`.
    fn push(&self, out: &mut Vec<u8>) {
        let at = out.len();
        out.resize(at + FRAME_HEADER_BYTES, 0);
        self.write(&mut out[at..]);
    }
}

/// The frame at the front of `buf`: its header and total bytes once all of
/// it has arrived, `Ok(None)` before. An ack or a fin is its header alone;
/// a hello, a fin with a body, a data frame without [`V3_FLAG`] or an
/// oversized body is corruption.
pub(crate) fn whole_frame(buf: &[u8]) -> Result<Option<(FrameHeader, usize)>, String> {
    let Some(h) = FrameHeader::parse(buf) else {
        return Ok(None);
    };
    let body = match h.tag.0 {
        HELLO_RANK => return Err("unexpected hello frame mid-stream".into()),
        ACK_RANK => 0,
        FIN_RANK if h.flags | h.len != 0 => return Err("corrupt frame: a fin with a body".into()),
        FIN_RANK => 0,
        _ if h.flags == 0 => {
            return Err(format!(
                "corrupt frame: data frame without the body-length flag (len field {:#x})",
                h.len
            ))
        }
        _ if h.len as usize > MAX_FRAME_BODY_BYTES => {
            return Err(format!("corrupt frame: {}-byte body claimed", h.len))
        }
        _ => h.len as usize,
    };
    let need = FRAME_HEADER_BYTES + body;
    Ok((buf.len() >= need).then_some((h, need)))
}

/// Encoded body size of one frame item.
fn item_bytes(f: &Frame) -> usize {
    match f {
        Frame::Pkt(_) => 1 + PACKET_BYTES,
        Frame::Run(r) => V3_RUN_ITEM_HEADER + r.payload.len(),
    }
}

/// Split a burst into frame bodies of at most [`FRAME_SPLIT_BYTES`], each
/// with its byte length: an oversized run is cut at packet-aligned element
/// boundaries, then items are packed greedily. An empty burst is one empty
/// chunk — it still frames. The burst is drained; its buffer stays with the
/// caller.
pub(crate) fn chunk(burst: &mut Burst) -> Vec<(Burst, usize)> {
    let mut chunks = vec![(Vec::new(), 0)];
    let mut put = |f: Frame| {
        let b = item_bytes(&f);
        let (cur, bytes) = chunks.last_mut().expect("one chunk");
        if !cur.is_empty() && *bytes + b > FRAME_SPLIT_BYTES {
            chunks.push((vec![f], b));
        } else {
            cur.push(f);
            *bytes += b;
        }
    };
    for f in burst.drain(..) {
        match f {
            Frame::Run(r) if V3_RUN_ITEM_HEADER + r.payload.len() > FRAME_SPLIT_BYTES => {
                let (sz, epp) = (r.dtype.size_bytes(), r.dtype.elems_per_packet());
                // Largest packet-aligned element count per chunk.
                let step = ((FRAME_SPLIT_BYTES - V3_RUN_ITEM_HEADER) / sz / epp).max(1) * epp;
                for at in (0..r.elems()).step_by(step) {
                    let mut part = r.clone();
                    part.payload = r.payload.slice(at * sz, step.min(r.elems() - at) * sz);
                    put(Frame::Run(part));
                }
            }
            f => put(f),
        }
    }
    chunks
}

/// Append one item to a frame body. Run payloads go out with a single
/// `extend_from_slice` — the one copy the process boundary genuinely
/// requires.
pub(crate) fn encode_item(out: &mut Vec<u8>, f: &Frame) {
    match f {
        Frame::Pkt(p) => {
            out.push(V3_ITEM_PKT);
            out.extend_from_slice(&p.pack());
        }
        Frame::Run(r) => {
            out.push(V3_ITEM_RUN);
            let code = Datatype::ALL
                .iter()
                .position(|d| *d == r.dtype)
                .expect("known dtype") as u8;
            out.push(code);
            out.extend_from_slice(&r.header.pack());
            out.extend_from_slice(&(r.payload.len() as u32).to_le_bytes());
            out.extend_from_slice(r.payload.as_slice());
        }
    }
}

/// Append one framed data burst (header carries the body byte length under
/// [`V3_FLAG`]). The receive side decodes run items back into views of its
/// pooled block, so runs cross the boundary with exactly one payload copy.
pub(crate) fn encode_frame_into(out: &mut Vec<u8>, tag: (u16, u16), seq: u64, burst: &[Frame]) {
    let body: usize = burst.iter().map(item_bytes).sum();
    debug_assert!(body <= MAX_FRAME_BODY_BYTES, "unsplit oversized frame");
    out.reserve(FRAME_HEADER_BYTES + body);
    FrameHeader {
        tag,
        flags: V3_FLAG,
        len: body as u32,
        seq,
    }
    .push(out);
    for f in burst {
        encode_item(out, f);
    }
}

/// Decode the frame body at `block[off..off + body]`. Run items become
/// zero-copy [`PayloadRun`] views pinning `block`; packet items are
/// unpacked inline.
pub(crate) fn decode_body(block: &Arc<[u8]>, mut off: usize, body: usize) -> Result<Burst, String> {
    let end = off + body;
    let mut burst: Burst = Vec::new();
    while off < end {
        let kind = block[off];
        off += 1;
        match kind {
            V3_ITEM_PKT => {
                if end - off < PACKET_BYTES {
                    return Err("truncated packet item".into());
                }
                let bytes: &[u8; PACKET_BYTES] = block[off..off + PACKET_BYTES]
                    .try_into()
                    .expect("packet slice");
                let pkt = NetworkPacket::unpack(bytes)
                    .map_err(|e| format!("undecodable packet on wire: {e}"))?;
                burst.push(pkt.into());
                off += PACKET_BYTES;
            }
            V3_ITEM_RUN => {
                if end - off < V3_RUN_ITEM_HEADER - 1 {
                    return Err("truncated run item".into());
                }
                let code = block[off] as usize;
                let dtype = *Datatype::ALL
                    .get(code)
                    .ok_or_else(|| format!("unknown dtype code {code}"))?;
                let hdr: &[u8; 4] = block[off + 1..off + 5].try_into().expect("header slice");
                let header = Header::unpack(hdr)
                    .map_err(|e| format!("undecodable run header on wire: {e}"))?;
                let nbytes =
                    u32::from_le_bytes(block[off + 5..off + 9].try_into().expect("4 bytes"))
                        as usize;
                off += V3_RUN_ITEM_HEADER - 1;
                if end - off < nbytes {
                    return Err("truncated run payload".into());
                }
                if !nbytes.is_multiple_of(dtype.size_bytes()) {
                    return Err(format!(
                        "corrupt frame: a {nbytes}-byte run of {dtype:?} is not whole elements"
                    ));
                }
                let payload = PayloadRun::from_shared(block.clone(), off, nbytes);
                burst.push(Frame::Run(PacketRun {
                    header,
                    dtype,
                    payload,
                }));
                off += nbytes;
            }
            other => return Err(format!("corrupt frame: unknown item kind {other}")),
        }
    }
    Ok(burst)
}

/// Append one bodiless control frame to a serialization buffer: a
/// cumulative ack ([`ACK_RANK`], `seq` = highest contiguous seq received)
/// or a fin ([`FIN_RANK`], `seq` 0).
pub(crate) fn encode_control_into(out: &mut Vec<u8>, rank: u16, seq: u64) {
    FrameHeader {
        tag: (rank, 0),
        flags: 0,
        len: 0,
        seq,
    }
    .push(out);
}

/// The handshake frame identifying one side of a process-pair connection,
/// both at bootstrap (`resume == false`) and at mid-stream recovery
/// (`resume == true`, `last_recv` doubling as a cumulative ack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Hello {
    /// Sender's process index in the process plan.
    pub proc: usize,
    /// Per-process-pair session id (chosen by the bootstrap dialer).
    pub session: u64,
    /// Whether this hello resumes an existing session.
    pub resume: bool,
    /// Sender's highest contiguously received data seq (0 at bootstrap).
    pub last_recv: u64,
}

impl Hello {
    /// A bootstrap (non-resume) hello.
    pub fn initial(proc: usize, session: u64) -> Hello {
        Hello {
            proc,
            session,
            resume: false,
            last_recv: 0,
        }
    }

    /// Serialize to the fixed [`HELLO_BYTES`] wire shape.
    pub fn encode(&self) -> [u8; HELLO_BYTES] {
        let mut b = [0u8; HELLO_BYTES];
        FrameHeader {
            tag: (HELLO_RANK, u16::from(self.resume)),
            flags: 0,
            len: self.proc as u32,
            seq: self.session,
        }
        .write(&mut b);
        b[FRAME_HEADER_BYTES..].copy_from_slice(&self.last_recv.to_le_bytes());
        b
    }

    /// Parse the fixed wire shape (checks the [`HELLO_RANK`] sentinel).
    pub fn parse(b: &[u8; HELLO_BYTES]) -> io::Result<Hello> {
        let h = FrameHeader::parse(b).expect("a hello holds a header");
        if h.tag.0 != HELLO_RANK {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected hello frame, got src_rank {}", h.tag.0),
            ));
        }
        Ok(Hello {
            proc: (h.flags | h.len) as usize,
            session: h.seq,
            resume: h.tag.1 & 1 != 0,
            last_recv: u64::from_le_bytes(b[FRAME_HEADER_BYTES..].try_into().expect("8 bytes")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::socket::session::{Pushed, ReplayRing};
    use proptest::prelude::*;
    use smi_wire::PacketOp;

    fn pkt(dst: u8, tag: u8) -> Frame {
        let mut p = NetworkPacket::new(0, dst, 0, PacketOp::Send);
        p.payload[0] = tag;
        p.header.count = 1;
        p.into()
    }

    fn run_of<T: smi_wire::SmiType>(elems: &[T]) -> Frame {
        Frame::Run(PacketRun::from_elems(0, 1, 0, PacketOp::Send, elems))
    }

    #[test]
    fn frame_encode_shape() {
        let mut ack = Vec::new();
        encode_control_into(&mut ack, ACK_RANK, 123);
        assert_eq!(ack.len(), FRAME_HEADER_BYTES);
        assert_eq!(u16::from_le_bytes(ack[..2].try_into().unwrap()), ACK_RANK);
        assert_eq!(u64::from_le_bytes(ack[8..16].try_into().unwrap()), 123);
        assert_eq!(
            whole_frame(&ack),
            Ok(Some((FrameHeader::parse(&ack).unwrap(), 16)))
        );
        let mut fin = Vec::new();
        encode_control_into(&mut fin, FIN_RANK, 0);
        assert_eq!(fin.len(), FRAME_HEADER_BYTES);
        assert_eq!(u16::from_le_bytes(fin[..2].try_into().unwrap()), FIN_RANK);
        assert_eq!(
            whole_frame(&fin),
            Ok(Some((FrameHeader::parse(&fin).unwrap(), 16)))
        );
    }

    /// The one header layout reads back what it wrote, for every frame kind,
    /// and a short buffer is "not yet", never a panic.
    #[test]
    fn frame_header_roundtrips() {
        for h in [
            FrameHeader {
                tag: (5, 3),
                flags: V3_FLAG,
                len: 4096,
                seq: 42,
            },
            FrameHeader {
                tag: (ACK_RANK, 0),
                flags: 0,
                len: 0,
                seq: u64::MAX,
            },
            FrameHeader {
                tag: (FIN_RANK, 0),
                flags: 0,
                len: 0,
                seq: 0,
            },
            FrameHeader {
                tag: (HELLO_RANK, 1),
                flags: 0,
                len: 7,
                seq: 0xDEAD_BEEF,
            },
        ] {
            let mut b = [0u8; FRAME_HEADER_BYTES];
            h.write(&mut b);
            assert_eq!(FrameHeader::parse(&b), Some(h));
            assert_eq!(FrameHeader::parse(&b[..FRAME_HEADER_BYTES - 1]), None);
        }
        let hello = Hello {
            proc: 3,
            session: 0xDEAD_BEEF_0BAD_F00D,
            resume: true,
            last_recv: 42,
        };
        assert_eq!(Hello::parse(&hello.encode()).unwrap(), hello);
        let initial = Hello::parse(&Hello::initial(7, 9).encode()).unwrap();
        assert_eq!(
            (
                initial.proc,
                initial.session,
                initial.resume,
                initial.last_recv
            ),
            (7, 9, false, 0)
        );
        let mut not_hello = hello.encode();
        not_hello[0] = 0;
        assert_eq!(
            Hello::parse(&not_hello).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn v3_frame_roundtrip_mixes_packets_and_runs() {
        let elems: Vec<u8> = (0..200).collect();
        let burst: Burst = vec![
            pkt(1, 7),
            Frame::Run(PacketRun::from_elems(0, 1, 2, PacketOp::Send, &elems)),
            pkt(1, 8),
        ];
        let mut out = Vec::new();
        encode_frame_into(&mut out, (5, 3), 42, &burst);
        // Header: v3 flag set, low bits carry the body byte length.
        let (h, need) = whole_frame(&out).unwrap().expect("a whole frame");
        assert_eq!((h.tag, h.flags, h.seq), ((5, 3), V3_FLAG, 42));
        let body = h.len as usize;
        assert_eq!(out.len(), need);
        assert_eq!(need, FRAME_HEADER_BYTES + body);
        assert_eq!(
            body,
            2 * (1 + PACKET_BYTES) + V3_RUN_ITEM_HEADER + elems.len()
        );
        assert_eq!(whole_frame(&out[..need - 1]), Ok(None));
        let block: Arc<[u8]> = out.into();
        let got = decode_body(&block, FRAME_HEADER_BYTES, body).unwrap();
        assert_eq!(got.len(), 3);
        match (&got[0], &got[1], &got[2]) {
            (Frame::Pkt(a), Frame::Run(r), Frame::Pkt(b)) => {
                assert_eq!(a.payload[0], 7);
                assert_eq!(b.payload[0], 8);
                assert_eq!(r.dtype, Datatype::Char);
                assert_eq!(r.header.dst, 1);
                assert_eq!(r.header.port, 2);
                assert_eq!(r.payload.as_slice(), &elems[..]);
            }
            other => panic!("wrong decode shape: {other:?}"),
        }
        // The run view borrows the receive block — no payload copy.
        assert_eq!(Arc::strong_count(&block), 2);
        drop(got);
        assert_eq!(Arc::strong_count(&block), 1);
    }

    /// Outside input: a run whose byte length is not a whole number of its
    /// dtype's elements is a typed stream fault, not a run the deframer
    /// would later trip over.
    #[test]
    fn runs_of_partial_elements_are_corrupt() {
        let mut out = Vec::new();
        encode_frame_into(&mut out, (0, 0), 1, &[run_of(&[1i32, 2, 3])]);
        let nbytes_at = FRAME_HEADER_BYTES + V3_RUN_ITEM_HEADER - 4;
        out[nbytes_at..nbytes_at + 4].copy_from_slice(&11u32.to_le_bytes());
        let block: Arc<[u8]> = out.into();
        let err = decode_body(&block, FRAME_HEADER_BYTES, block.len() - FRAME_HEADER_BYTES);
        assert!(err.unwrap_err().contains("corrupt frame"));
    }

    /// FNV-1a, to pin a long byte string in one constant.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The wire bytes of a fixed list — packets, runs, a cork merge, an
    /// oversized run split across frames, an ack, a bootstrap and a resume
    /// hello — equal the bytes the single-file socket layer produced for
    /// the same list (length, frame sizes and FNV-1a digest captured from
    /// it); a fin appended to them reads one more digest.
    #[test]
    fn wire_bytes_match_the_reference_encoding() {
        let mut ring = ReplayRing::new(1 << 20);
        let mut push =
            |tag, mut burst: Burst| ring.push(tag, &chunk(&mut burst), Vec::with_capacity);
        assert_eq!(push((0, 0), vec![pkt(1, 7), pkt(1, 8)]), Pushed::Framed);
        assert_eq!(push((0, 0), vec![pkt(1, 9)]), Pushed::Corked);
        let small: Vec<u8> = (0..200).map(|i| (i * 3) as u8).collect();
        assert_eq!(
            push((3, 2), vec![run_of(&small), pkt(1, 10)]),
            Pushed::Framed
        );
        let big: Vec<i32> = (0..37_500).map(|i| i * 7 - 1000).collect();
        let big = Frame::Run(PacketRun::from_elems(3, 5, 1, PacketOp::Send, &big));
        assert_eq!(push((3, 2), vec![big]), Pushed::Framed);
        let sizes: Vec<usize> = ring.frames.iter().map(|(_, f)| f.len()).collect();
        assert_eq!(sizes, [115, 259, 65_546, 65_546, 18_986]);
        let mut out: Vec<u8> = ring.frames.iter().flat_map(|(_, f)| f.clone()).collect();
        encode_control_into(&mut out, ACK_RANK, 123_456_789);
        out.extend_from_slice(&Hello::initial(7, 0xDEAD_BEEF_0BAD_F00D).encode());
        let resume = Hello {
            proc: 3,
            session: 0x0123_4567_89AB_CDEF,
            resume: true,
            last_recv: 42,
        };
        out.extend_from_slice(&resume.encode());
        assert_eq!(out.len(), 150_516);
        assert_eq!(fnv(&out), 0x70d1_b682_b4ce_94ea);
        encode_control_into(&mut out, FIN_RANK, 0);
        assert_eq!(out.len(), 150_532);
        assert_eq!(fnv(&out), 0x5294_bea3_d40e_1eee);
    }

    /// Everything a decoder makes of `bytes`: a typed error or a bounded
    /// result, never a panic. Nothing is sized by a claimed length: a
    /// whole frame fits one receive block, a fin with a body is an error,
    /// and a decoded body holds at most one item per run-item header's
    /// worth of bytes, its runs whole-element views of it.
    fn decode_anything(bytes: &[u8]) -> Result<(), TestCaseError> {
        if let Some(h) = FrameHeader::parse(bytes) {
            let fin_with_body = h.tag.0 == FIN_RANK && h.flags | h.len != 0;
            prop_assert!(!fin_with_body || whole_frame(bytes).is_err());
        }
        let mut hello = [0u8; HELLO_BYTES];
        let n = bytes.len().min(HELLO_BYTES);
        hello[..n].copy_from_slice(&bytes[..n]);
        let _ = Hello::parse(&hello);
        if let Ok(Some((_, need))) = whole_frame(bytes) {
            prop_assert!(need <= RECV_BLOCK_CAP && need <= bytes.len());
        }
        let block: Arc<[u8]> = bytes.into();
        let start = bytes.len().min(FRAME_HEADER_BYTES);
        if let Ok(burst) = decode_body(&block, start, bytes.len() - start) {
            let body = bytes.len() - start;
            prop_assert!(burst.len() * V3_RUN_ITEM_HEADER <= body);
            let mut run_bytes = 0;
            for f in &burst {
                if let Frame::Run(r) = f {
                    prop_assert!(r.payload.len().is_multiple_of(r.dtype.size_bytes()));
                    run_bytes += r.payload.len();
                }
            }
            prop_assert!(run_bytes <= body);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Arbitrary bytes into every decoder, half of them under a fin tag.
        #[test]
        fn decoders_survive_arbitrary_bytes(
            mut bytes in prop::collection::vec(any::<u8>(), 0..160),
            fin in any::<bool>(),
        ) {
            if fin && bytes.len() >= 2 {
                bytes[..2].copy_from_slice(&FIN_RANK.to_le_bytes());
            }
            decode_anything(&bytes)?;
        }

        /// Valid frames of packets and runs of any dtype, with a few bytes
        /// overwritten anywhere: header, item kinds, dtype codes, lengths;
        /// half of them retagged as a fin that carries the body.
        #[test]
        fn decoders_survive_corrupted_frames(
            items in prop::collection::vec((any::<u8>(), 0usize..100), 0..6),
            hits in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
            fin in any::<bool>(),
        ) {
            let burst: Burst = items
                .iter()
                .map(|&(kind, n)| match kind % 3 {
                    0 => pkt(1, kind),
                    1 => run_of(&vec![kind; n]),
                    _ => run_of(&vec![f64::from(kind); n]),
                })
                .collect();
            let mut out = Vec::new();
            encode_frame_into(&mut out, (2, 1), 9, &burst);
            if fin {
                out[..2].copy_from_slice(&FIN_RANK.to_le_bytes());
            }
            for &(at, byte) in &hits {
                let at = at % out.len();
                out[at] = byte;
            }
            decode_anything(&out)?;
        }
    }
}
