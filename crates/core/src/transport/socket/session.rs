//! The seq/replay/ack/resume rules of one connection, with no I/O and no
//! clock of its own: every deadline is computed from a `now` the caller
//! passes in.
//!
//! The sender keeps every unacked frame in a bounded [`ReplayRing`], behind
//! the producers' one mutex; the [`Session`] (what arrived, what was acked)
//! belongs to the pump alone and takes no lock. On a mid-stream fault both
//! sides exchange resume hellos carrying their `last_recv`, the ring is
//! rewound to the peer's ack point and unacked frames are replayed.
//! Receivers discard duplicate seqs and treat a gap as a fault, so recovery
//! is exactly-once and in-order.
//!
//! A stream ends in-band: each side writes a fin and nothing after it, and
//! reads on until the peer's. A close after the peer's fin is clean; one
//! before it is a fault, whether or not the run is ending.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use super::codec::{encode_frame_into, encode_item, FrameHeader, Hello, FRAME_HEADER_BYTES};
use crate::params::ReconnectPolicy;
use crate::transport::Burst;

/// Extra per-attempt patience of the listening side of a broken connection:
/// each of its wait windows is the dialer's backoff plus this grace, so the
/// waiter's budget always outlasts the dialer's dial schedule.
const RESUME_GRACE: Duration = Duration::from_millis(500);

/// How long the oldest transmitted frame may sit unacked with no
/// cumulative-ack progress before the pump treats the stream as faulted and
/// forces a resume handshake. Loss is normally detected by the receiver as
/// a sequence gap, but a gap needs a *later* frame to expose it — a fault
/// on the last frame of a burst is invisible to the receiver, so the sender
/// must probe. Only recoverable pumps probe: with recovery off the probe
/// could only turn a slow-but-live link into a dead one.
const ACK_PROBE_TIMEOUT: Duration = Duration::from_millis(400);

/// Cap on a cork-merged frame body: merging stops growing a frame past
/// this, bounding replay granularity and receive-side burst size.
pub(crate) const CORK_MERGE_CAP: usize = 8 * 1024;

/// A fresh, practically unique session id (bootstrap dialers call this
/// once per process-pair connection).
pub(crate) fn fresh_session_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let c = COUNTER.fetch_add(1, Ordering::Relaxed);
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mixed = (u64::from(std::process::id()) << 32) ^ t ^ (c << 1);
    // splitmix64-style finalizer so ids look nothing alike.
    let mut z = mixed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What [`ReplayRing::push`] did with an offered burst.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Pushed {
    /// Merged into the newest untransmitted frame (the adaptive cork).
    Corked,
    /// Encoded into new frames, one seq each.
    Framed,
    /// Over the budget while frames are unacked: backpressure.
    Full,
    /// A frame of `needed` bytes can never fit the `budget`: recovery could
    /// never replay it, so this is a fatal configuration error.
    Overflow { needed: usize, budget: usize },
}

/// The transmit source of truth: every offered burst is encoded once into
/// this ring and stays there until the peer's cumulative ack covers it.
/// `cursor` separates frames the flush is done with (`< cursor`) from
/// frames still awaiting transmission; a resume rewinds `cursor` to 0 so
/// every surviving frame is retransmitted.
pub(crate) struct ReplayRing {
    pub frames: VecDeque<(u64, Vec<u8>)>,
    bytes: usize,
    next_seq: u64,
    pub cursor: usize,
    /// Bytes of `frames[cursor]` already on the wire: the flush writes
    /// straight from the ring and a partial write lands here.
    pub wire_off: usize,
    budget: usize,
}

impl ReplayRing {
    pub fn new(budget: usize) -> ReplayRing {
        ReplayRing {
            frames: VecDeque::new(),
            bytes: 0,
            next_seq: 1,
            cursor: 0,
            wire_off: 0,
            budget,
        }
    }

    /// Encode `chunks` ([`super::codec::chunk`]) under `tag`. A small
    /// single-chunk burst merges into the newest frame when that frame
    /// shares the tag and has not touched the wire — it rides the existing
    /// seq and header, so replay semantics are unchanged. Otherwise each
    /// chunk becomes a frame in a buffer from `buf` (given the bytes it
    /// needs), when they all fit the budget.
    pub fn push(
        &mut self,
        tag: (u16, u16),
        chunks: &[(Burst, usize)],
        mut buf: impl FnMut(usize) -> Vec<u8>,
    ) -> Pushed {
        let last = self.frames.len().checked_sub(1);
        let untouched =
            last.is_some_and(|i| i > self.cursor || (i == self.cursor && self.wire_off == 0));
        if let ([(items, body)], true) = (chunks, untouched) {
            let frame = &mut self.frames.back_mut().expect("a newest frame").1;
            let mut h = FrameHeader::parse(frame).expect("a ring frame has a header");
            if h.tag == tag
                && h.len as usize + body <= CORK_MERGE_CAP
                && self.bytes + body <= self.budget
            {
                items.iter().for_each(|f| encode_item(frame, f));
                h.len += *body as u32;
                h.write(frame);
                self.bytes += body;
                return Pushed::Corked;
            }
        }
        let needs = chunks.iter().map(|(_, body)| FRAME_HEADER_BYTES + body);
        let needed = needs.clone().max().unwrap_or(FRAME_HEADER_BYTES);
        if needed > self.budget {
            return Pushed::Overflow {
                needed,
                budget: self.budget,
            };
        }
        if self.bytes + needs.sum::<usize>() > self.budget {
            return Pushed::Full;
        }
        for (items, body) in chunks {
            let mut frame = buf(FRAME_HEADER_BYTES + body);
            encode_frame_into(&mut frame, tag, self.next_seq, items);
            self.bytes += frame.len();
            self.frames.push_back((self.next_seq, frame));
            self.next_seq += 1;
        }
        Pushed::Framed
    }

    /// Drop every frame covered by the cumulative ack `acked`, handing the
    /// encode buffers back for pool recycling.
    pub fn apply_ack(&mut self, acked: u64) -> Vec<Vec<u8>> {
        let mut recycled = Vec::new();
        while let Some((seq, _)) = self.frames.front() {
            if *seq > acked {
                break;
            }
            let (_, bytes) = self.frames.pop_front().expect("front exists");
            self.bytes -= bytes.len();
            if self.cursor > 0 {
                self.cursor -= 1;
            } else {
                // Popping a frame at/under the write cursor can only happen
                // after a rewind; any partial-write offset dies with it.
                self.wire_off = 0;
            }
            recycled.push(bytes);
        }
        recycled
    }

    /// Account `n` written bytes to the frame at the cursor, moving the
    /// cursor on when they complete it (returns whether they did).
    pub fn wrote(&mut self, n: &mut usize) -> bool {
        let rem = self.frames[self.cursor].1.len() - self.wire_off;
        if *n < rem {
            self.wire_off += *n;
            *n = 0;
            return false;
        }
        *n -= rem;
        self.cursor += 1;
        self.wire_off = 0;
        true
    }

    /// The oldest frame the peer can be expected to ack: `cursor > 0` means
    /// the front frame has been written (or kept off the wire by the fault
    /// injector); `wire_off > 0` means it is partially written.
    pub fn oldest_sent(&self) -> Option<u64> {
        let sent = self.cursor > 0 || self.wire_off > 0;
        self.frames.front().filter(|_| sent).map(|(seq, _)| *seq)
    }
}

/// The pump's half of a connection, negotiated at hello time: its identity
/// for resume hellos, its recovery policy ([`crate::RuntimeParams::stream_reconnect`]),
/// what it has received and acked, and the ack-progress probe.
pub(crate) struct Session {
    /// Per-process-pair session id (chosen by the bootstrap dialer).
    pub id: u64,
    local_proc: usize,
    peer_proc: usize,
    policy: ReconnectPolicy,
    /// Highest contiguously received data seq (survives reconnects).
    last_recv: u64,
    /// Highest seq we have acked to the peer.
    last_acked: u64,
    /// Oldest sent-but-unacked seq at the last probe, and the deadline by
    /// which the peer's cumulative ack must move past it.
    probe: Option<(u64, Instant)>,
    /// This side's fin is queued: nothing may be written after it.
    pub fin_sent: bool,
    /// The peer's fin has arrived: it writes nothing more, so the stream
    /// closing under us from here on is clean, not a fault.
    pub peer_fin: bool,
}

impl Session {
    /// Session `id` between this process and `peer_proc`.
    pub fn new(id: u64, local_proc: usize, peer_proc: usize, policy: ReconnectPolicy) -> Session {
        Session {
            id,
            local_proc,
            peer_proc,
            policy,
            last_recv: 0,
            last_acked: 0,
            probe: None,
            fin_sent: false,
            peer_fin: false,
        }
    }

    /// Whether a fault heals instead of killing the connection.
    pub fn recoverable(&self) -> bool {
        !matches!(self.policy, ReconnectPolicy::Fail)
    }

    /// The verdict on an arriving data frame: `Ok(true)` delivers it,
    /// `Ok(false)` discards a replay overlap or an injected duplicate, and a
    /// hole in the sequence — bytes lost on a stream that claims to be
    /// healthy — is a fault: the resume handshake replays what is missing.
    pub fn admit(&self, seq: u64) -> Result<bool, String> {
        if seq > self.last_recv + 1 {
            return Err(format!(
                "sequence gap: expected {}, got {seq}",
                self.last_recv + 1
            ));
        }
        Ok(seq > self.last_recv)
    }

    /// Record the admitted frame `seq` as delivered.
    pub fn delivered(&mut self, seq: u64) {
        self.last_recv = seq;
    }

    /// The cumulative ack due for everything newly delivered, marked sent.
    pub fn take_ack(&mut self) -> Option<u64> {
        let due = self.last_recv > self.last_acked;
        self.last_acked = self.last_recv;
        due.then_some(self.last_recv)
    }

    /// Sender-side liveness probe over the ring's oldest sent frame: if the
    /// peer's cumulative ack has not moved past it within
    /// [`ACK_PROBE_TIMEOUT`] of `now`, the stall is a stream fault, so the
    /// resume handshake retransmits it. Returns the fault detail. A peer
    /// that sent its fin acks nothing more, so its fin disarms the probe.
    pub fn probe(&mut self, oldest: Option<u64>, now: Instant) -> Option<String> {
        let Some(seq) = oldest.filter(|_| !self.peer_fin) else {
            self.probe = None;
            return None;
        };
        match self.probe {
            Some((watched, deadline)) if watched == seq => (now >= deadline)
                .then(|| format!("no ack progress past seq {seq} within {ACK_PROBE_TIMEOUT:?}")),
            _ => {
                self.probe = Some((seq, now + ACK_PROBE_TIMEOUT));
                None
            }
        }
    }

    /// The resume hello this side sends; its `last_recv` doubles as a
    /// cumulative ack.
    pub fn resume_hello(&self) -> Hello {
        Hello {
            proc: self.local_proc,
            session: self.id,
            resume: true,
            last_recv: self.last_recv,
        }
    }

    /// Whether the peer's `hello` resumes this session.
    pub fn resumes(&self, hello: &Hello) -> bool {
        hello.resume && hello.session == self.id
    }

    /// Resume on a fresh stream: drop the frames the peer already has
    /// (returning their buffers), schedule everything left for
    /// retransmission from byte 0, and count the resume hello just sent as
    /// the ack of all received.
    pub fn resume(&mut self, ring: &mut ReplayRing, peer_last_recv: u64) -> Vec<Vec<u8>> {
        let recycled = ring.apply_ack(peer_last_recv);
        ring.cursor = 0;
        ring.wire_off = 0;
        self.last_acked = self.last_recv;
        self.probe = None;
        recycled
    }

    /// When reconnect attempt `next` may start (its jittered backoff from
    /// `now`, plus [`RESUME_GRACE`] on the listening side), or `None` once
    /// the policy's attempts are spent.
    pub fn next_try(&self, next: u32, listener: bool, now: Instant) -> Option<Instant> {
        let grace = RESUME_GRACE * u32::from(listener);
        let delay = self.policy.delay_for(next, self.peer_proc as u64 ^ self.id) + grace;
        (next < self.policy.max_attempts()).then_some(now + delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::socket::codec::chunk;
    use smi_wire::{Frame, NetworkPacket, PacketOp, PACKET_BYTES};

    /// Bytes of a frame holding one packet item.
    const PKT_FRAME: usize = FRAME_HEADER_BYTES + 1 + PACKET_BYTES;

    fn pkt(tag: u8) -> Frame {
        let mut p = NetworkPacket::new(0, 1, 0, PacketOp::Send);
        p.payload[0] = tag;
        p.header.count = 1;
        p.into()
    }

    fn push(ring: &mut ReplayRing, tag: (u16, u16), mut burst: Burst) -> Pushed {
        ring.push(tag, &chunk(&mut burst), Vec::with_capacity)
    }

    /// Push `n` one-packet frames and write each out whole before the next
    /// arrives (so the cork cannot merge them).
    fn written_frames(n: u8) -> ReplayRing {
        let mut ring = ReplayRing::new(1 << 20);
        for i in 0..n {
            assert_eq!(push(&mut ring, (0, 0), vec![pkt(i)]), Pushed::Framed);
            assert!(ring.wrote(&mut PKT_FRAME.clone()));
        }
        ring
    }

    fn session(policy: ReconnectPolicy) -> Session {
        Session::new(0xFEED, 0, 1, policy)
    }

    fn retry(attempts: u32) -> ReconnectPolicy {
        ReconnectPolicy::Retry {
            attempts,
            backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
            multiplier: 2.0,
        }
    }

    fn seqs(ring: &ReplayRing) -> Vec<u64> {
        ring.frames.iter().map(|(seq, _)| *seq).collect()
    }

    #[test]
    fn fresh_session_ids_are_distinct() {
        assert_ne!(fresh_session_id(), fresh_session_id());
    }

    /// The receiver's cumulative ack trims exactly the settled frames off
    /// the sender's ring and hands their buffers back.
    #[test]
    fn acks_trim_the_replay_ring() {
        let mut ring = written_frames(20);
        assert_eq!((ring.cursor, ring.bytes), (20, 20 * PKT_FRAME));
        let mut rx = session(ReconnectPolicy::Fail);
        for seq in 1..=20 {
            assert_eq!(rx.admit(seq), Ok(true));
            rx.delivered(seq);
            if seq == 12 {
                let acked = rx.take_ack().expect("an ack is due");
                assert_eq!(ring.apply_ack(acked).len(), 12);
                assert_eq!(seqs(&ring), (13..=20).collect::<Vec<_>>());
                assert_eq!((ring.cursor, ring.bytes), (8, 8 * PKT_FRAME));
            }
        }
        let acked = rx.take_ack().expect("an ack is due");
        assert_eq!(acked, 20);
        assert_eq!(rx.take_ack(), None, "nothing new, no ack");
        assert_eq!(ring.apply_ack(acked).len(), 8);
        assert!(ring.frames.is_empty(), "acked frames must leave the ring");
        assert_eq!((ring.bytes, ring.cursor), (0, 0));
        assert!(
            ring.apply_ack(acked).is_empty(),
            "a stale ack trims nothing"
        );
    }

    /// Frames 1, 1, 2: the second 1 is discarded, and the ack covers 2.
    #[test]
    fn duplicate_frames_are_discarded() {
        let mut rx = session(ReconnectPolicy::Fail);
        let mut delivered = Vec::new();
        for seq in [1, 1, 2] {
            if rx.admit(seq).expect("no gap") {
                rx.delivered(seq);
                delivered.push(seq);
            }
        }
        assert_eq!(delivered, [1, 2]);
        assert_eq!(rx.take_ack(), Some(2));
    }

    #[test]
    fn sequence_gap_is_a_stream_fault() {
        let mut rx = session(ReconnectPolicy::Fail);
        rx.delivered(1);
        let err = rx.admit(3).expect_err("a hole in the sequence");
        assert!(err.contains("sequence gap: expected 2, got 3"), "{err}");
        assert!(
            !rx.recoverable(),
            "without recovery the fault kills the link"
        );
        assert!(session(retry(3)).recoverable());
    }

    #[test]
    fn replay_ring_overflow_is_a_typed_error() {
        let mut ring = ReplayRing::new(PKT_FRAME); // one packet item max
                                                   // A two-packet frame can never fit: typed fatal error, not Full.
        assert_eq!(
            push(&mut ring, (0, 0), vec![pkt(0), pkt(1)]),
            Pushed::Overflow {
                needed: FRAME_HEADER_BYTES + 2 * (1 + PACKET_BYTES),
                budget: PKT_FRAME,
            }
        );
        assert!(ring.frames.is_empty());
    }

    #[test]
    fn full_ring_is_backpressure_not_an_error() {
        let mut ring = ReplayRing::new(2 * PKT_FRAME);
        assert_eq!(push(&mut ring, (0, 0), vec![pkt(0)]), Pushed::Framed);
        assert_eq!(push(&mut ring, (0, 0), vec![pkt(1)]), Pushed::Corked);
        // A third packet exceeds the budget while unacked, corked or not.
        assert_eq!(push(&mut ring, (0, 0), vec![pkt(2)]), Pushed::Full);
        assert_eq!(push(&mut ring, (1, 0), vec![pkt(2)]), Pushed::Full);
        assert_eq!((ring.frames.len(), ring.next_seq), (1, 2));
        // An ack makes room again.
        assert_eq!(ring.apply_ack(1).len(), 1);
        assert_eq!(push(&mut ring, (0, 0), vec![pkt(2)]), Pushed::Framed);
    }

    /// The cork merges only into the newest frame, only under the same tag,
    /// only before any byte of that frame is on the wire, and only up to
    /// [`CORK_MERGE_CAP`].
    #[test]
    fn cork_merges_only_untransmitted_same_tag_frames() {
        let mut ring = ReplayRing::new(1 << 20);
        assert_eq!(push(&mut ring, (0, 0), vec![pkt(0)]), Pushed::Framed);
        assert_eq!(push(&mut ring, (0, 0), vec![pkt(1)]), Pushed::Corked);
        assert_eq!(push(&mut ring, (0, 1), vec![pkt(2)]), Pushed::Framed);
        assert!(!ring.wrote(&mut 1), "a byte of frame 1 is on the wire");
        assert_eq!(push(&mut ring, (0, 1), vec![pkt(3)]), Pushed::Corked);
        let two_pkt_frame = PKT_FRAME + 1 + PACKET_BYTES;
        assert!(ring.wrote(&mut (two_pkt_frame - 1)), "frame 1 done");
        assert!(!ring.wrote(&mut 1), "a byte of frame 2 is on the wire");
        assert_eq!(push(&mut ring, (0, 1), vec![pkt(4)]), Pushed::Framed);
        let mut merged = 0;
        while push(&mut ring, (0, 1), vec![pkt(5)]) == Pushed::Corked {
            merged += 1;
        }
        assert_eq!(merged, CORK_MERGE_CAP / (1 + PACKET_BYTES) - 1);
        assert_eq!(seqs(&ring), [1, 2, 3, 4]);
    }

    /// A resume rewinds the ring to the peer's ack point: frames the peer
    /// has are dropped, every other is retransmitted in order from its
    /// first byte, and the resume hello carries our own ack point.
    #[test]
    fn resume_replays_unacked_frames_in_order() {
        let mut ring = written_frames(10);
        let mut s = session(retry(10));
        for seq in 1..=3 {
            s.delivered(seq);
        }
        assert_eq!(s.resume(&mut ring, 0).len(), 0, "the peer got nothing");
        assert_eq!((ring.cursor, ring.wire_off), (0, 0));
        assert_eq!(seqs(&ring), (1..=10).collect::<Vec<_>>());
        let tags: Vec<u8> = ring
            .frames
            .iter()
            .map(|(_, f)| f[FRAME_HEADER_BYTES + 1 + 4])
            .collect();
        assert_eq!(tags, (0..10).collect::<Vec<_>>(), "replayed as encoded");
        assert_eq!(s.take_ack(), None, "the resume hello acked 3");
        let hello = s.resume_hello();
        assert_eq!(
            (hello.proc, hello.session, hello.resume, hello.last_recv),
            (0, 0xFEED, true, 3)
        );
        assert!(s.resumes(&Hello { proc: 1, ..hello }));
        assert!(!s.resumes(&Hello::initial(1, 0xFEED)));
        assert!(!s.resumes(&Hello {
            session: 1,
            ..hello
        }));
        // A peer that got frames 1..4 before the cut: only 5..10 replay.
        assert_eq!(s.resume(&mut ring, 4).len(), 4);
        assert_eq!(seqs(&ring), (5..=10).collect::<Vec<_>>());
        assert_eq!(ring.bytes, 6 * PKT_FRAME);
    }

    /// The sender's probe: an oldest sent frame whose ack does not move
    /// within the timeout is a fault; ack progress re-arms the deadline;
    /// nothing sent disarms it.
    #[test]
    fn ack_probe_times_out_without_ack_progress() {
        let mut s = session(retry(3));
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let mut ring = written_frames(2);
        assert_eq!(s.probe(ring.oldest_sent(), t0), None);
        assert_eq!(s.probe(ring.oldest_sent(), ms(399)), None);
        ring.apply_ack(1);
        assert_eq!(
            s.probe(ring.oldest_sent(), ms(399)),
            None,
            "progress re-arms"
        );
        assert_eq!(s.probe(ring.oldest_sent(), ms(798)), None);
        let fault = s.probe(ring.oldest_sent(), ms(799)).expect("stalled");
        assert!(
            fault.contains("no ack progress past seq 2 within 400ms"),
            "{fault}"
        );
        ring.apply_ack(2);
        assert_eq!(ring.oldest_sent(), None);
        assert_eq!(s.probe(None, ms(10_000)), None);
        let mut unsent = ReplayRing::new(1 << 20);
        push(&mut unsent, (0, 0), vec![pkt(0)]);
        assert_eq!(
            unsent.oldest_sent(),
            None,
            "an unwritten frame cannot be acked"
        );
        assert!(!unsent.wrote(&mut 1));
        assert_eq!(unsent.oldest_sent(), Some(1), "a partly written one can");
    }

    /// A session starts with neither fin, and the peer's fin disarms the
    /// ack probe: a peer that sent it acks nothing more, so an unacked
    /// frame after it is no fault.
    #[test]
    fn the_peers_fin_disarms_the_ack_probe() {
        let mut s = session(retry(3));
        assert!(!s.fin_sent && !s.peer_fin);
        let t0 = Instant::now();
        let ring = written_frames(1);
        assert_eq!(s.probe(ring.oldest_sent(), t0), None);
        let late = t0 + ACK_PROBE_TIMEOUT * 2;
        assert!(s.probe(ring.oldest_sent(), late).is_some(), "stalled");
        s.peer_fin = true;
        let later = late + ACK_PROBE_TIMEOUT;
        assert_eq!(s.probe(ring.oldest_sent(), later), None, "no ack is due");
    }

    /// The backoff schedule: attempt `k` waits its jittered delay, the
    /// listening side a grace longer, and the budget ends the schedule.
    #[test]
    fn reconnect_schedule_follows_the_policy() {
        let t0 = Instant::now();
        let s = session(retry(3));
        for next in 1..3 {
            let dial = s.next_try(next, false, t0).expect("within budget") - t0;
            let wait = s.next_try(next, true, t0).expect("within budget") - t0;
            assert_eq!(dial, retry(3).delay_for(next, 1 ^ 0xFEED));
            assert_eq!(wait, dial + RESUME_GRACE);
        }
        assert_eq!(s.next_try(3, false, t0), None, "budget exhausted");
        assert_eq!(session(ReconnectPolicy::Fail).next_try(1, true, t0), None);
    }
}
