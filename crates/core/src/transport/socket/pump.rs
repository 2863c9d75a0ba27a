//! The socket pump: the [`Pollable`] that moves bytes between a
//! connection's [`Session`] and its [`Stream`], and the [`Transport`]
//! handles the CK machines hold, which only touch lock-guarded queues and
//! so never block on a syscall.
//!
//! On a mid-stream I/O fault the connection enters a `Reconnecting` phase
//! instead of dying: the dialing side re-dials the peer's data listener
//! under [`crate::RuntimeParams::stream_reconnect`] (jittered exponential
//! backoff), and the listening side takes the re-dial its
//! [`ReconnectHub`] routes to it. Only a budget-exhausted reconnect (or
//! [`crate::params::ReconnectPolicy::Fail`]) marks the peer dead.
//!
//! A stream ends in-band, the same way under every launcher. Once its group
//! leaves the completion barrier ([`FabricHealth::finish`]) a pump finishes
//! the frame it is writing, writes a fin and then nothing else, and reads
//! (dropping data: nobody is left to take it) until the peer's fin; with
//! both fins out it ends. Neither side closes with unread bytes, which could
//! reset the connection under the peer's last reads. An EOF or failed write
//! after the peer's fin is a clean close; before it, a fault, counted in
//! [`WireStats::stream_faults`]. A finishing pump that faults, or is
//! reconnecting, ends instead of healing.

use std::collections::HashMap;
use std::io::{self, IoSlice, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use smi_wire::Frame;

use super::codec::{
    chunk, decode_body, encode_control_into, whole_frame, ACK_RANK, FIN_RANK, FRAME_HEADER_BYTES,
    FRAME_SPLIT_BYTES, RECV_BLOCK_CAP,
};
use super::session::{Pushed, ReplayRing, Session};
use super::{
    recv_hello, send_hello, FabricHealth, PeerDownKind, PeerInfo, ReconnectHub, ReconnectInfo,
    ReconnectSlot, Redial, SocketStream, RESUME_IO_TIMEOUT,
};
use crate::transport::executor::{Pollable, Step};
use crate::transport::faults::{FaultAction, FaultInjector};
use crate::transport::link::{burst_queue, LinkRx, LinkSend, LinkTx, QueueTx, Transport};
use crate::transport::{
    inline_data_packets, meter_inline_data, Burst, CopyMeter, TransportStats, WireStats,
};

/// Cap (in bursts) of each per-link inbound demux queue. A full queue stops
/// the pump from parsing further frames — head-of-line backpressure on the
/// whole connection, resolved as soon as the slow CKR input drains.
const INBOUND_QUEUE_CAP: usize = 1024;

/// Bytes read from the socket per `read` call inside one poll.
const READ_CHUNK: usize = 16 * 1024;

/// Cap on buffered boundary bytes (acks, injected copies); past this the
/// pump skips generating new acks until the writer drains (they are
/// cumulative, so skipped acks are subsumed by the next one).
const CTRL_CAP: usize = 64 * 1024;

/// Adaptive cork: flush as soon as this many outbound bytes are pending…
const CORK_FLUSH_BYTES: usize = 32 * 1024;

/// …or after this many deferring polls, whichever comes first. Kept well
/// under the executor's cold-idle threshold so a corked pump is never
/// parked long with data in hand.
const CORK_MAX_DEFERS: u32 = 8;

/// Max recycled buffers kept on each free list (encode buffers, receive
/// blocks).
const POOL_CAP: usize = 64;

/// Encode buffers with more capacity than this are dropped instead of
/// pooled (no hoarding of one-off giants).
const ENC_BUF_POOL_MAX: usize = FRAME_SPLIT_BYTES + 4096;

/// Max `IoSlice`s per `write_vectored` call (comfortably under IOV_MAX).
const MAX_IOV: usize = 64;

/// The byte stream under a pump: `read` and `write_vectored` never block
/// (`WouldBlock` instead), and `shutdown` closes both directions.
/// [`SocketStream`] is the production impl, and a resumed stream arrives as
/// one. It is one stream, not a read half and a write half: `O_NONBLOCK`
/// lives on the open file description that every `try_clone` shares, so a
/// blocking reader cannot sit beside a non-blocking writer.
pub(crate) trait Stream: Read + Write + From<SocketStream> + Send {
    /// Close both directions (the peer sees EOF / EPIPE).
    fn shutdown(&self) -> io::Result<()>;
}

struct ConnShared {
    closed: AtomicBool,
    ring: Mutex<ReplayRing>,
    health: FabricHealth,
    peer: PeerInfo,
    copies: CopyMeter,
    wire: WireStats,
    /// Free list of recycled encode buffers: refilled by acks, drained by
    /// `offer`.
    enc_pool: Mutex<Vec<Vec<u8>>>,
    /// Inbound demux queues, by sender-side endpoint: the pump is each
    /// one's sole producer.
    queues: HashMap<(usize, usize), QueueTx>,
}

impl ConnShared {
    /// Mark the peer dead and close every link of the connection, waking
    /// their consumers for it.
    fn down(&self, detail: String, kind: PeerDownKind) {
        self.health.mark_down(self.peer.down(detail, kind));
        self.closed.store(true, Ordering::SeqCst);
        self.queues.values().for_each(QueueTx::close);
    }

    /// Return encode buffers to the free list (bounded; oversized one-off
    /// buffers are dropped rather than hoarded).
    fn recycle(&self, bufs: Vec<Vec<u8>>) {
        if bufs.is_empty() {
            return;
        }
        let mut pool = self.enc_pool.lock().expect("enc pool lock");
        for mut b in bufs {
            if pool.len() >= POOL_CAP || b.capacity() > ENC_BUF_POOL_MAX {
                continue;
            }
            b.clear();
            pool.push(b);
        }
    }

    /// An encode buffer with room for `need` bytes: recycled when the pool
    /// has one (hit), freshly allocated otherwise (miss).
    fn enc_buf(&self, need: usize) -> Vec<u8> {
        if let Some(mut b) = self.enc_pool.lock().expect("enc pool lock").pop() {
            self.wire.pool_hits.fetch_add(1, Ordering::Relaxed);
            b.reserve(need);
            return b;
        }
        self.wire.pool_misses.fetch_add(1, Ordering::Relaxed);
        Vec::with_capacity(need)
    }
}

/// How one side of a broken connection recovers its stream.
pub(crate) enum ReconnectRole {
    /// This side re-dials the peer's data listener.
    Dialer {
        /// Where to re-dial.
        redial: Redial,
    },
    /// This side waits for the peer's re-dial, routed through the hub.
    Listener {
        /// The process-wide hub that owns the data listener.
        hub: Arc<ReconnectHub>,
    },
}

/// Everything needed to wrap one established, hello-exchanged stream. How
/// the stream ends is not configured: the group's [`FabricHealth`], shared
/// by every pump, carries the end of the run the same way under every
/// launcher.
pub(crate) struct ConnConfig {
    /// Identity of the peer process.
    pub peer: PeerInfo,
    /// *Sender-side* endpoints `(rank, qsfp)` whose traffic this process
    /// expects over this connection; each gets a demux queue.
    pub recv_keys: Vec<(usize, usize)>,
    /// Replay-ring byte budget (4 MiB in a split run; the pump's own tests
    /// set others).
    pub replay_budget: usize,
    /// The session negotiated at hello time.
    pub session: Session,
    /// Which side re-establishes the stream after a fault.
    pub role: ReconnectRole,
    /// Deterministic fault injector for this connection's outbound
    /// direction, if the plan configures one.
    pub faults: Option<FaultInjector>,
    /// The counters the connection charges: payload copies of the codec,
    /// and the wire's syscalls, bytes, pools, cork and faults.
    pub stats: TransportStats,
}

/// Handle side of one process-pair connection: mints [`LinkTx`]/[`LinkRx`]
/// trait objects for every topology edge multiplexed over the socket. The
/// matching [`SocketPump`] owns the stream and must be registered with the
/// executor for any byte to move.
pub(crate) struct SocketConn {
    shared: Arc<ConnShared>,
    /// Consumer halves of the demux queues, until the wiring takes them.
    rx: Mutex<HashMap<(usize, usize), LinkRx>>,
}

impl SocketConn {
    /// Wrap an established, hello-exchanged, non-blocking stream; the pump
    /// ends its stream when `health` finishes.
    pub fn new<S: Stream>(
        stream: S,
        cfg: ConnConfig,
        health: FabricHealth,
    ) -> (SocketConn, SocketPump<S>) {
        let halves = cfg.recv_keys.iter().map(|&key| {
            let (tx, rx) = burst_queue(INBOUND_QUEUE_CAP);
            ((key, tx), (key, rx))
        });
        let (queues, rx): (HashMap<_, _>, _) = halves.unzip();
        let slot = match &cfg.role {
            ReconnectRole::Listener { hub } => Some(hub.register(cfg.peer.process, cfg.session.id)),
            ReconnectRole::Dialer { .. } => None,
        };
        health.stream_opened();
        let shared = Arc::new(ConnShared {
            closed: AtomicBool::new(false),
            ring: Mutex::new(ReplayRing::new(cfg.replay_budget.max(1))),
            health,
            peer: cfg.peer,
            copies: cfg.stats.payload_copies,
            wire: cfg.stats.wire,
            enc_pool: Mutex::new(Vec::new()),
            queues,
        });
        let pump = SocketPump {
            stream,
            shared: shared.clone(),
            session: cfg.session,
            role: cfg.role,
            slot,
            faults: cfg.faults,
            admitted: 0,
            pending_sever: None,
            phase: Phase::Streaming,
            ctrl: Vec::new(),
            cork_defers: 0,
            rblock: None,
            rpos: 0,
            rfilled: 0,
            rblocks: Vec::new(),
            eof: false,
        };
        let conn = SocketConn {
            shared,
            rx: Mutex::new(rx),
        };
        (conn, pump)
    }

    /// Send half for the edge leaving local endpoint `(src_rank, src_qsfp)`.
    pub fn tx(&self, src_rank: usize, src_qsfp: usize) -> LinkTx {
        Box::new(SocketLinkTx {
            conn: self.shared.clone(),
            tag: (src_rank as u16, src_qsfp as u16),
        })
    }

    /// Receive half for traffic sent by the peer endpoint `key`, taken
    /// once. Panics if `key` was not in `recv_keys` — a wiring bug.
    pub fn rx(&self, key: (usize, usize)) -> LinkRx {
        let rx = self.rx.lock().expect("rx lock").remove(&key);
        rx.unwrap_or_else(|| panic!("no receive half for endpoint {key:?}"))
    }
}

#[derive(Clone)]
struct SocketLinkTx {
    conn: Arc<ConnShared>,
    /// The frame tag: this edge's sender-side endpoint.
    tag: (u16, u16),
}

/// Charge the copy meter for serializing `burst` into a wire buffer: run
/// payloads by exact byte length, inline data packets by packet (control
/// packets carry no semantic payload).
fn meter_outbound(copies: &CopyMeter, burst: &[Frame]) {
    let runs = burst.iter().filter_map(|f| match f {
        Frame::Run(r) => Some(r.payload.len()),
        Frame::Pkt(_) => None,
    });
    copies.add_bytes(runs.sum());
    meter_inline_data(copies, burst);
}

impl Transport for SocketLinkTx {
    /// Encode into recycled buffers: small bursts cork-merged into the
    /// newest untransmitted ring frame, large bursts split so every frame
    /// fits one receive block.
    fn offer(&mut self, burst: Burst) -> LinkSend {
        if self.conn.closed.load(Ordering::Relaxed) {
            return LinkSend::Closed;
        }
        let chunks = chunk(burst);
        let mut ring = self.conn.ring.lock().expect("ring lock");
        let pushed = ring.push(self.tag, &chunks, |need| self.conn.enc_buf(need));
        drop(ring);
        match pushed {
            Pushed::Corked => {
                self.conn.wire.corked_frames.fetch_add(1, Ordering::Relaxed);
            }
            Pushed::Framed => {}
            // Backpressure: hand the burst back (as split items — content
            // identical, re-offered by the CK machine later).
            Pushed::Full => return LinkSend::Full(chunks.into_iter().flat_map(|c| c.0).collect()),
            Pushed::Overflow { needed, budget } => {
                let detail = format!(
                    "one frame needs {needed} bytes but the replay budget is {budget} bytes"
                );
                self.conn
                    .down(detail, PeerDownKind::ReplayOverflow { needed, budget });
                return LinkSend::Closed;
            }
        }
        for (items, _) in &chunks {
            meter_outbound(&self.conn.copies, items);
        }
        LinkSend::Accepted
    }

    /// Same connection, same frame tag: the ring lock orders the producers'
    /// offers, and a cork merge never crosses edges.
    fn share(&self) -> LinkTx {
        Box::new(self.clone())
    }
}

/// Where one connection is in its lifecycle.
enum Phase {
    /// Normal operation: flush, read, deframe.
    Streaming,
    /// The stream is gone; recovery is in progress.
    Reconnecting {
        /// Current attempt (0-based).
        attempt: u32,
        /// Earliest time of the next dial / the end of the current wait
        /// window.
        next_try: Instant,
        /// Most recent failure, for diagnostics.
        last_err: String,
    },
    /// The peer is dead, or the stream ended; the executor drops the pump.
    Done,
}

/// The I/O duty cycle of one connection: a [`Pollable`] that writes unacked
/// frames from the replay ring onto the stream and reads/deframes inbound
/// bytes into the per-link demux queues, generating cumulative acks. Never
/// blocks in `Streaming`; a resume handshake performs bounded blocking I/O
/// (at most [`RESUME_IO_TIMEOUT`] per attempt). On an I/O fault it runs the
/// reconnect state machine described in the module docs.
pub(crate) struct SocketPump<S: Stream> {
    stream: S,
    shared: Arc<ConnShared>,
    session: Session,
    role: ReconnectRole,
    slot: Option<Arc<ReconnectSlot>>,
    faults: Option<FaultInjector>,
    /// Ring frames from the write cursor on that `faults` has already let
    /// pass; only these enter the write window. A fault forgets them, so
    /// replayed frames take fresh emission ordinals.
    admitted: usize,
    /// An injected sever waiting for everything admitted to be written.
    pending_sever: Option<u64>,
    phase: Phase,
    /// Pending bytes that are not ring frames: cumulative acks, plus the
    /// owned copies `faults` injects (duplicates, released delayed frames).
    /// Always whole frames, written only on a frame boundary of the ring.
    ctrl: Vec<u8>,
    /// Polls the adaptive cork has deferred a pending write.
    cork_defers: u32,
    /// Current receive block (`rpos..rfilled` = unparsed), and the other
    /// blocks: free, or still pinned by run views.
    rblock: Option<Arc<[u8]>>,
    rpos: usize,
    rfilled: usize,
    rblocks: Vec<Arc<[u8]>>,
    eof: bool,
}

impl<S: Stream> SocketPump<S> {
    fn fail(&mut self, detail: String) {
        self.shared.down(detail, PeerDownKind::Link);
        self.phase = Phase::Done;
    }

    /// End the stream (the executor drops the pump, which closes it).
    fn end(&mut self) -> Step {
        self.phase = Phase::Done;
        Step::Done
    }

    /// Outbound fault injection, asked once per emission as frames enter
    /// the write window: a frame that passes is written from the ring like
    /// any other; a dropped, duplicated or delayed one is decided when the
    /// write cursor reaches it, and the cursor moves past it without a
    /// slice — the copies that do go out are owned boundary bytes in `ctrl`.
    /// Returns how many frames from the cursor on may be written; without a
    /// fault plan that is all of them.
    fn admit(&mut self, ring: &mut ReplayRing) -> usize {
        let Some(faults) = self.faults.as_mut() else {
            return ring.frames.len() - ring.cursor;
        };
        loop {
            if self.admitted == 0 {
                // Nothing admitted is left unwritten: a delayed frame that
                // came due goes out behind the frames that outran it.
                for released in faults.take_released() {
                    self.ctrl.extend_from_slice(&released);
                }
            }
            if self.pending_sever.is_some() || self.admitted >= MAX_IOV {
                break;
            }
            let Some((_, frame)) = ring.frames.get(ring.cursor + self.admitted) else {
                break;
            };
            if self.admitted > 0 && !faults.next_passes() {
                break;
            }
            match faults.on_emit() {
                FaultAction::Pass => self.admitted += 1,
                FaultAction::Drop => ring.cursor += 1,
                FaultAction::Duplicate => {
                    self.ctrl.extend_from_slice(frame);
                    self.ctrl.extend_from_slice(frame);
                    ring.cursor += 1;
                }
                FaultAction::Delay(by) => {
                    faults.hold(frame.clone(), by);
                    ring.cursor += 1;
                }
            }
            self.pending_sever = faults.sever_due();
        }
        self.admitted
    }

    /// The send path: one `write_vectored` spans every unwritten ring
    /// frame, straight from the pooled encode buffers — no staging copy,
    /// one syscall for many frames — plus the boundary bytes in `ctrl`
    /// (piggybacked acks), which never land inside a half-written frame.
    /// The adaptive cork defers small writes a few polls so bursts
    /// coalesce (and small same-tag bursts merge under one header).
    /// While `finishing`, no cork or fault applies: the window is the frame
    /// half on the wire, then the fin, and nothing follows the fin.
    fn flush(&mut self, finishing: bool, progressed: &mut bool) -> Result<(), String> {
        let shared = self.shared.clone();
        let mut ring = shared.ring.lock().expect("ring lock");
        if !finishing {
            // Pending bytes (summed only until the flush threshold is known).
            let mut pending = self.ctrl.len();
            let mut off = ring.wire_off;
            for (_, buf) in ring.frames.iter().skip(ring.cursor) {
                if pending >= CORK_FLUSH_BYTES {
                    break;
                }
                pending += buf.len() - off;
                off = 0;
            }
            if pending == 0 {
                self.cork_defers = 0;
                return Ok(());
            }
            if pending < CORK_FLUSH_BYTES && self.cork_defers < CORK_MAX_DEFERS {
                self.cork_defers += 1;
                return Ok(());
            }
        }
        self.cork_defers = 0;
        loop {
            if finishing && ring.wire_off == 0 && !self.session.fin_sent {
                encode_control_into(&mut self.ctrl, FIN_RANK, 0);
                self.session.fin_sent = true;
            }
            let window = if finishing {
                usize::from(ring.wire_off > 0)
            } else {
                self.admit(&mut ring)
            };
            let mut frames = ring.frames.iter().skip(ring.cursor).take(window);
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_IOV);
            // `ctrl` must not land inside a half-written frame: the peer
            // would take it for payload. Finish that frame first.
            if ring.wire_off > 0 {
                let (_, buf) = frames
                    .next()
                    .expect("a half-written frame is in the window");
                slices.push(IoSlice::new(&buf[ring.wire_off..]));
            }
            if !self.ctrl.is_empty() {
                slices.push(IoSlice::new(&self.ctrl));
            }
            slices.extend(
                frames
                    .take(MAX_IOV - slices.len())
                    .map(|(_, buf)| IoSlice::new(buf)),
            );
            if slices.is_empty() {
                break;
            }
            match self.stream.write_vectored(&slices) {
                Ok(0) => return Err("write returned 0 (connection closed)".into()),
                Ok(mut n) => {
                    drop(slices);
                    shared.wire.add_send(n);
                    *progressed = true;
                    // Consume in slice order: the half-written frame, the
                    // boundary bytes, whole frames.
                    let mut completed = 0;
                    if ring.wire_off > 0 {
                        completed += usize::from(ring.wrote(&mut n));
                    }
                    let ctrl_take = n.min(self.ctrl.len());
                    self.ctrl.drain(..ctrl_take);
                    n -= ctrl_take;
                    while n > 0 {
                        completed += usize::from(ring.wrote(&mut n));
                    }
                    self.admitted = self.admitted.saturating_sub(completed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // A peer that died mid-stream commonly surfaces as a write
                // error (EPIPE/ECONNRESET) before the read side sees EOF.
                Err(e) => return Err(format!("write failed: {e}")),
            }
        }
        if self.admitted == 0 && self.ctrl.is_empty() && !finishing {
            if let Some(n) = self.pending_sever.take() {
                let _ = self.stream.shutdown();
                return Err(format!("injected sever after frame {n}"));
            }
        }
        Ok(())
    }

    /// Swap in a writable receive block — the newest whose last run view
    /// has been dropped, or a fresh one — carrying the unparsed tail over
    /// (bounded by one frame). Returns false when the tail is too large to
    /// carry — a full-block frame waiting on queue backpressure; reading
    /// must pause until the demux queues drain.
    fn rotate_rblock(&mut self) -> bool {
        let tail = self.rfilled - self.rpos;
        if RECV_BLOCK_CAP - tail < READ_CHUNK {
            return false;
        }
        let wire = &self.shared.wire;
        let mut next = match self.rblocks.iter().rposition(|b| Arc::strong_count(b) == 1) {
            Some(i) => {
                wire.pool_hits.fetch_add(1, Ordering::Relaxed);
                self.rblocks.swap_remove(i)
            }
            None => {
                wire.pool_misses.fetch_add(1, Ordering::Relaxed);
                Arc::from(vec![0u8; RECV_BLOCK_CAP])
            }
        };
        if let Some(old) = self.rblock.take() {
            if tail > 0 {
                let dst = Arc::get_mut(&mut next).expect("a free block is unique");
                dst[..tail].copy_from_slice(&old[self.rpos..self.rfilled]);
            }
            if Arc::strong_count(&old) > 1 || self.rblocks.len() < POOL_CAP {
                self.rblocks.push(old);
            }
        }
        self.rblock = Some(next);
        self.rpos = 0;
        self.rfilled = tail;
        true
    }

    /// Read straight into the current `Arc` block. A block stops being
    /// writable the moment a run view pins it (`Arc::get_mut` fails), so
    /// the pump rotates to a free block and keeps the pinned one until
    /// consumers drain it.
    fn fill_rblock(&mut self, progressed: &mut bool) -> Result<(), String> {
        if self.eof {
            return Ok(());
        }
        for _ in 0..4 {
            let writable = self.rblock.as_mut().is_some_and(|b| {
                Arc::get_mut(b).is_some() && RECV_BLOCK_CAP - self.rfilled >= READ_CHUNK
            });
            if !writable && !self.rotate_rblock() {
                break; // backpressure: a full-block frame is parked
            }
            let block = Arc::get_mut(self.rblock.as_mut().expect("block present"))
                .expect("rotated block is unique");
            match self.stream.read(&mut block[self.rfilled..]) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.rfilled += n;
                    self.shared.wire.add_recv(n);
                    *progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read failed: {e}")),
            }
        }
        Ok(())
    }

    /// Parse whole frames out of the current receive block, decoding run
    /// items into zero-copy views of it, then stage the cumulative ack.
    /// While `finishing`, data frames are dropped unread; after our fin, no
    /// ack is staged.
    fn deframe(&mut self, finishing: bool, progressed: &mut bool) -> Result<(), String> {
        let Some(block) = self.rblock.clone() else {
            return Ok(());
        };
        while let Some((h, need)) = whole_frame(&block[self.rpos..self.rfilled])? {
            if h.tag.0 == ACK_RANK {
                let recycled = self.shared.ring.lock().expect("ring lock").apply_ack(h.seq);
                self.shared.recycle(recycled);
            } else if h.tag.0 == FIN_RANK {
                self.session.peer_fin = true;
            } else if finishing {
                // Residue of a finished run: nobody is left to read it.
            } else if self.session.admit(h.seq)? {
                let key = (h.tag.0 as usize, h.tag.1 as usize);
                let Some(queue) = self.shared.queues.get(&key) else {
                    let (rank, qsfp) = h.tag;
                    return Err(format!(
                        "frame from unknown endpoint (rank {rank}, qsfp {qsfp})"
                    ));
                };
                let burst = decode_body(
                    &block,
                    self.rpos + FRAME_HEADER_BYTES,
                    need - FRAME_HEADER_BYTES,
                )?;
                let inline = inline_data_packets(&burst);
                if let LinkSend::Full(_) = queue.push(burst) {
                    // Head-of-line backpressure: stop parsing until the slow
                    // CKR input drains its queue (the frame decodes again
                    // then, so only an accepted decode is charged).
                    break;
                }
                self.shared.copies.add_packets(inline);
                self.session.delivered(h.seq);
            } // else: already delivered (replay overlap, injected duplicate)
            self.rpos += need;
            *progressed = true;
        }
        // Skipped when the boundary buffer is backed up: acks are
        // cumulative, the next one covers this one.
        if self.ctrl.len() < CTRL_CAP && !self.session.fin_sent {
            if let Some(acked) = self.session.take_ack() {
                encode_control_into(&mut self.ctrl, ACK_RANK, acked);
            }
        }
        Ok(())
    }

    /// After EOF: remaining unparsed bytes are either a whole frame blocked
    /// on a full demux queue (keep polling) or a truncated tail.
    fn eof_verdict(&self) -> Option<String> {
        let buf = &self.rblock.as_deref().unwrap_or_default()[self.rpos..self.rfilled];
        match whole_frame(buf) {
            _ if buf.is_empty() => Some("connection closed by peer (EOF)".into()),
            Ok(Some(_)) => None,
            Ok(None) => Some(format!("link cut mid-frame ({} trailing bytes)", buf.len())),
            Err(e) => Some(e),
        }
    }

    /// Handle a connection fault: count it, reset stream-scoped state and
    /// either die (no recovery) or enter `Reconnecting` — or, while the
    /// group is finishing, end.
    fn on_fault(&mut self, detail: String) -> Step {
        let _ = self.stream.shutdown();
        let faults = &self.shared.wire.stream_faults;
        faults.fetch_add(1, Ordering::Relaxed);
        if self.shared.health.finishing() {
            return self.end();
        }
        self.ctrl.clear();
        self.admitted = 0;
        self.pending_sever = None;
        self.cork_defers = 0;
        self.rpos = 0;
        self.rfilled = 0;
        self.eof = false;
        if let Some(f) = self.faults.as_mut() {
            f.clear_held();
        }
        if !self.session.recoverable() {
            self.fail(detail);
            return Step::Progress;
        }
        self.reconnect_at(0, Instant::now(), detail)
    }

    /// Enter (or stay in) `Reconnecting` at `attempt`, due at `next_try`.
    fn reconnect_at(&mut self, attempt: u32, next_try: Instant, last_err: String) -> Step {
        let peer = &self.shared.peer;
        self.shared.health.mark_reconnecting(ReconnectInfo {
            rank: peer.rank,
            process: peer.process,
            attempt,
            detail: last_err.clone(),
        });
        self.phase = Phase::Reconnecting {
            attempt,
            next_try,
            last_err,
        };
        Step::Progress
    }

    /// Adopt a fresh stream after a successful resume handshake.
    fn adopt(&mut self, stream: SocketStream, peer_last_recv: u64) -> Result<(), String> {
        stream
            .set_read_timeout(None)
            .and_then(|()| stream.set_nonblocking(true))
            .map_err(|e| format!("resume: make the stream non-blocking: {e}"))?;
        let mut ring = self.shared.ring.lock().expect("ring lock");
        let recycled = self.session.resume(&mut ring, peer_last_recv);
        drop(ring);
        self.shared.recycle(recycled);
        self.stream = S::from(stream);
        self.phase = Phase::Streaming;
        self.shared.health.mark_healthy(self.shared.peer.process);
        Ok(())
    }

    /// One dial attempt of the re-dialing side.
    fn try_resume_dial(&mut self, redial: &Redial) -> Result<(), String> {
        if self.faults.as_ref().is_some_and(|f| !f.allow_restore()) {
            return Err("restore disabled by fault plan".into());
        }
        let mut s = redial
            .connect()
            .map_err(|e| format!("re-dial {}: {e}", redial.addr()))?;
        s.set_read_timeout(Some(RESUME_IO_TIMEOUT))
            .map_err(|e| format!("resume: set read timeout: {e}"))?;
        send_hello(&mut s, &self.session.resume_hello())
            .map_err(|e| format!("resume hello send: {e}"))?;
        let peer = recv_hello(&mut s).map_err(|e| format!("resume hello recv: {e}"))?;
        if !self.session.resumes(&peer) {
            return Err(format!(
                "resume handshake mismatch (session {:#x} vs {:#x}, resume {})",
                peer.session, self.session.id, peer.resume
            ));
        }
        self.adopt(s, peer.last_recv)
    }

    /// Check the hub slot for a peer-initiated resume. Returns Ok(true)
    /// when a stream was adopted, Ok(false) when nothing (usable) arrived:
    /// a stray from another life, or a fault plan that forbids healing.
    fn try_take_offer(&mut self) -> Result<bool, String> {
        let Some((mut s, hello)) = self
            .slot
            .as_ref()
            .and_then(|slot| slot.lock().expect("slot lock").take())
        else {
            return Ok(false);
        };
        if !self.session.resumes(&hello) || self.faults.as_ref().is_some_and(|f| !f.allow_restore())
        {
            return Ok(false);
        }
        s.set_nonblocking(false)
            .map_err(|e| format!("resume: set blocking: {e}"))?;
        send_hello(&mut s, &self.session.resume_hello())
            .map_err(|e| format!("resume hello reply: {e}"))?;
        self.adopt(s, hello.last_recv)?;
        Ok(true)
    }

    /// Record a failed attempt; die when the budget is exhausted,
    /// otherwise schedule the next window.
    fn bump_attempt(&mut self, attempt: u32, err: String) -> Step {
        let next = attempt + 1;
        let listener = matches!(self.role, ReconnectRole::Listener { .. });
        let Some(next_try) = self.session.next_try(next, listener, Instant::now()) else {
            self.fail(format!(
                "reconnect budget exhausted after {next} attempts: {err}"
            ));
            return Step::Progress;
        };
        self.reconnect_at(next, next_try, err)
    }

    fn poll_streaming(&mut self) -> Step {
        let finishing = self.shared.health.finishing();
        let mut progressed = false;
        let r = self
            .flush(finishing, &mut progressed)
            .and_then(|()| self.fill_rblock(&mut progressed))
            .and_then(|()| self.deframe(finishing, &mut progressed));
        let closed = match r {
            Err(detail) => Some(detail),
            Ok(()) if self.eof => self.eof_verdict(),
            Ok(()) => None,
        };
        if self.session.fin_sent && self.session.peer_fin && self.ctrl.is_empty() {
            return self.end();
        }
        if let Some(detail) = closed {
            if self.session.peer_fin {
                return self.end();
            }
            return self.on_fault(detail);
        }
        if self.session.recoverable() && !finishing {
            let oldest = self.shared.ring.lock().expect("ring lock").oldest_sent();
            if let Some(detail) = self.session.probe(oldest, Instant::now()) {
                return self.on_fault(detail);
            }
        }
        if progressed {
            Step::Progress
        } else {
            Step::Idle
        }
    }

    fn poll_reconnecting(&mut self, attempt: u32, next_try: Instant, last_err: String) -> Step {
        if self.shared.health.finishing() {
            return self.end();
        }
        match &self.role {
            ReconnectRole::Dialer { redial } => {
                if Instant::now() < next_try {
                    return Step::Idle;
                }
                match self.try_resume_dial(&redial.clone()) {
                    Ok(()) => Step::Progress,
                    Err(e) => self.bump_attempt(attempt, e),
                }
            }
            ReconnectRole::Listener { hub } => {
                hub.accept_redials(&self.shared.wire);
                match self.try_take_offer() {
                    Ok(true) => Step::Progress,
                    Ok(false) if Instant::now() < next_try => Step::Idle,
                    Ok(false) => {
                        self.bump_attempt(attempt, format!("waiting for peer re-dial ({last_err})"))
                    }
                    Err(e) => self.bump_attempt(attempt, e),
                }
            }
        }
    }
}

impl<S: Stream> Pollable for SocketPump<S> {
    fn poll(&mut self) -> Step {
        match &self.phase {
            Phase::Streaming => self.poll_streaming(),
            Phase::Reconnecting {
                attempt,
                next_try,
                last_err,
            } => self.poll_reconnecting(*attempt, *next_try, last_err.clone()),
            Phase::Done => Step::Done,
        }
    }
}

impl<S: Stream> Drop for SocketPump<S> {
    fn drop(&mut self) {
        if let ReconnectRole::Listener { hub } = &self.role {
            hub.unregister(self.shared.peer.process, self.session.id);
        }
        self.shared.health.stream_dropped();
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    use super::*;
    use crate::error::SmiError;
    use crate::params::ReconnectPolicy;
    use crate::transport::link::LinkRecv;
    use crate::transport::socket::codec::{
        encode_frame_into, FrameHeader, V3_FLAG, V3_RUN_ITEM_HEADER,
    };
    use crate::transport::socket::session::CORK_MERGE_CAP;
    use crate::transport::socket::{fresh_session_id, Hello, SocketListener};
    use smi_wire::{NetworkPacket, PacketOp, PacketRun, PACKET_BYTES};

    fn pair() -> (SocketStream, SocketStream) {
        let (a, b) = UnixStream::pair().expect("socketpair");
        (SocketStream::Unix(a), SocketStream::Unix(b))
    }
    fn pkt(dst: u8, tag: u8) -> NetworkPacket {
        let mut p = NetworkPacket::new(0, dst, 0, PacketOp::Send);
        p.payload[0] = tag;
        p.header.count = 1;
        p
    }

    /// The tag byte of a delivered frame that was offered as a packet
    /// (packet items decode back to inline packets).
    fn tag(f: &Frame) -> u8 {
        match f {
            Frame::Pkt(p) => p.payload[0],
            Frame::Run(_) => panic!("a packet item must decode to an inline packet"),
        }
    }

    fn peer(backend: &'static str) -> PeerInfo {
        PeerInfo {
            rank: 1,
            process: 1,
            backend,
            addr: "test".into(),
        }
    }

    /// A config for tests over raw stream pairs: default replay budget, no
    /// recovery, no faults, the listening role over a hub with no listener.
    fn basic(recv_keys: &[(usize, usize)]) -> ConnConfig {
        ConnConfig {
            peer: peer("uds"),
            recv_keys: recv_keys.to_vec(),
            replay_budget: 1 << 20,
            session: Session::new(0, 0, 1, ReconnectPolicy::Fail),
            role: ReconnectRole::Listener {
                hub: ReconnectHub::new(None).unwrap(),
            },
            faults: None,
            stats: TransportStats::default(),
        }
    }

    /// One end of a socket pair wrapped with `cfg`, the other left raw.
    fn conn_to_raw(
        cfg: ConnConfig,
    ) -> (
        SocketConn,
        SocketPump<SocketStream>,
        SocketStream,
        FabricHealth,
    ) {
        let (sa, raw) = pair();
        sa.set_nonblocking(true).unwrap();
        let health = FabricHealth::default();
        let (conn, pump) = SocketConn::new(sa, cfg, health.clone());
        (conn, pump, raw, health)
    }

    type Pump = SocketPump<SocketStream>;

    /// Both ends wrapped, on one health board: A sends from endpoint (0,0)
    /// and B from (1,0), each expecting the other's tag.
    fn conn_pair() -> (SocketConn, Pump, SocketConn, Pump, FabricHealth) {
        let (conn_a, pump_a, sb, health) = conn_to_raw(basic(&[(1, 0)]));
        sb.set_nonblocking(true).unwrap();
        let (conn_b, pump_b) = SocketConn::new(sb, basic(&[(0, 0)]), health.clone());
        (conn_a, pump_a, conn_b, pump_b, health)
    }

    fn offer(tx: &mut LinkTx, burst: Burst) {
        assert!(matches!(tx.offer(burst), LinkSend::Accepted));
    }

    fn run_of(elems: &[u8]) -> Frame {
        Frame::Run(smi_wire::PacketRun::from_elems(
            0,
            1,
            0,
            PacketOp::Send,
            elems,
        ))
    }

    /// Append the payload of a delivered burst of runs to `out`.
    fn run_bytes(burst: &[Frame], out: &mut Vec<u8>) {
        for f in burst {
            match f {
                Frame::Run(r) => out.extend_from_slice(r.payload.as_slice()),
                Frame::Pkt(_) => panic!("decode must deliver runs as views"),
            }
        }
    }

    #[test]
    fn bursts_cross_the_socket_in_order() {
        let (conn_a, mut pump_a, conn_b, mut pump_b, health) = conn_pair();
        let mut tx = conn_a.tx(0, 0);
        let mut rx = conn_b.rx((0, 0));
        for i in 0..50u8 {
            offer(&mut tx, vec![pkt(1, i).into()]);
        }
        let mut seen = Vec::new();
        while seen.len() < 50 {
            pump_a.poll();
            pump_b.poll();
            while let LinkRecv::Burst(b) = rx.try_recv() {
                seen.extend(b.iter().map(tag));
            }
        }
        assert_eq!(seen, (0..50u8).collect::<Vec<_>>());
        assert!(health.peer_down().is_none());
    }

    /// Two producers into one edge, as a CKS and a transit CKR share a link:
    /// their bursts interleave, some cork-merged into the other's frame, and
    /// arrive in offer order, each producer's in its own order.
    #[test]
    fn shared_link_tx_keeps_each_producers_order() {
        let (conn_a, mut pump_a, conn_b, mut pump_b, health) = conn_pair();
        let tx = conn_a.tx(0, 0);
        let mut producers = [tx.share(), tx.share()];
        drop(tx);
        let mut rx = conn_b.rx((0, 0));
        let mut offered = Vec::new();
        for i in 0..40u8 {
            let who = usize::from(i % 3 == 0);
            offer(&mut producers[who], vec![pkt(1, i).into()]);
            offered.push(i);
            if i % 7 == 0 {
                pump_a.poll(); // some bursts leave alone, the rest corked
            }
        }
        assert!(conn_a.shared.wire.corked_frames.load(Ordering::Relaxed) > 0);
        let mut seen = Vec::new();
        for _ in 0..100_000 {
            pump_a.poll();
            pump_b.poll();
            while let LinkRecv::Burst(b) = rx.try_recv() {
                seen.extend(b.iter().map(tag));
            }
            if seen.len() == offered.len() {
                break;
            }
        }
        assert_eq!(seen, offered);
        assert!(health.peer_down().is_none());
    }

    #[test]
    fn peer_death_marks_health_and_closes_links() {
        let (conn_a, mut pump_a, conn_b, mut pump_b, health_a) = conn_pair();
        // B sends one burst, then dies (stream dropped).
        offer(&mut conn_b.tx(1, 0), vec![pkt(0, 7).into()]);
        for _ in 0..100 {
            pump_b.poll();
        }
        drop(pump_b);
        drop(conn_b);
        // A must deliver the in-flight burst, then report the dead peer.
        let mut rx = conn_a.rx((1, 0));
        let mut got = None;
        let mut closed = false;
        for _ in 0..10_000 {
            pump_a.poll();
            match rx.try_recv() {
                LinkRecv::Burst(b) => got = Some(b),
                LinkRecv::Closed => {
                    closed = true;
                    break;
                }
                LinkRecv::Empty => std::thread::yield_now(),
            }
        }
        assert_eq!(tag(&got.expect("in-flight burst delivered")[0]), 7);
        assert!(closed, "rx must report Closed after peer death");
        let pd = health_a.peer_down().expect("health board marked");
        assert_eq!(pd.peer.rank, 1);
        assert_eq!(pd.peer.backend, "uds");
        // Sends toward the dead peer report Closed, not Full.
        let mut tx = conn_a.tx(0, 0);
        assert!(matches!(tx.offer(vec![pkt(1, 0).into()]), LinkSend::Closed));
        assert_eq!(
            health_a.error(),
            Some(SmiError::PeerDisconnected { rank: 1 })
        );
    }

    /// Full mid-stream recovery at the socket layer: a dialer-role conn
    /// loses its stream, re-dials a listener we control, re-handshakes and
    /// replays the unacked tail; the test peer verifies exactly-once
    /// delivery.
    #[test]
    fn mid_stream_reconnect_replays_unacked_frames() {
        let dir = std::env::temp_dir().join(format!("smi-sock-test-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("resume.sock");
        let (listener, addr) = SocketListener::bind_uds(path).unwrap();

        let session = fresh_session_id();
        let policy = ReconnectPolicy::Retry {
            attempts: 10,
            backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
            multiplier: 2.0,
        };
        let cfg = ConnConfig {
            session: Session::new(session, 0, 1, policy),
            role: ReconnectRole::Dialer {
                redial: Redial::Uds(addr),
            },
            ..basic(&[])
        };
        let (conn_a, mut pump_a, sb, health) = conn_to_raw(cfg);
        let mut tx = conn_a.tx(0, 0);
        // Push every frame across the original stream (polling between
        // offers, so the cork cannot merge them into one frame), then cut
        // it without ever acking: everything must be replayed.
        for i in 0..10u8 {
            offer(&mut tx, vec![pkt(1, i).into()]);
            for _ in 0..=CORK_MAX_DEFERS {
                pump_a.poll();
            }
        }
        assert_eq!(conn_a.shared.ring.lock().unwrap().cursor, 10);
        sb.shutdown().unwrap();
        drop(sb);

        // The test peer: accept the re-dial, handshake, read all 10 frames.
        let peer_thread = std::thread::spawn(move || {
            let mut s = listener.accept().expect("re-dial accepted");
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let hello = recv_hello(&mut s).expect("resume hello");
            assert!(hello.resume);
            assert_eq!(hello.session, session);
            let reply = Hello {
                proc: 1,
                session,
                resume: true,
                last_recv: 0, // got nothing: replay everything
            };
            send_hello(&mut s, &reply).unwrap();
            let frame = FRAME_HEADER_BYTES + 1 + PACKET_BYTES;
            let mut buf = vec![0u8; 10 * frame];
            s.read_exact(&mut buf).unwrap();
            let block: Arc<[u8]> = buf.into();
            let mut tags = Vec::new();
            for f in 0..10 {
                let off = f * frame;
                let seq = u64::from_le_bytes(block[off + 8..off + 16].try_into().expect("8 bytes"));
                assert_eq!(seq, f as u64 + 1, "replayed in order");
                let burst = decode_body(&block, off + FRAME_HEADER_BYTES, 1 + PACKET_BYTES)
                    .expect("valid body");
                tags.extend(burst.iter().map(tag));
            }
            // Hand the stream back so it outlives the assertions: dropping
            // it here would look like a second mid-stream fault.
            (tags, s)
        });

        // Drive the pump through fault → reconnect → replay.
        let start = Instant::now();
        while health.healed() == 0 {
            pump_a.poll();
            assert!(
                start.elapsed() < Duration::from_secs(20),
                "reconnect never healed; down={:?}",
                health.peer_down()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        for _ in 0..10_000 {
            pump_a.poll();
        }
        let (tags, _peer_stream) = peer_thread.join().expect("peer thread");
        assert_eq!(tags, (0..10u8).collect::<Vec<_>>());
        assert!(health.peer_down().is_none());
        assert!(!health.any_reconnecting());
    }

    /// Budget exhaustion: the redial target never answers, so the conn
    /// walks Healthy → Reconnecting{0..n} → Dead.
    #[test]
    fn reconnect_budget_exhaustion_marks_peer_dead() {
        let policy = ReconnectPolicy::Retry {
            attempts: 3,
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            multiplier: 2.0,
        };
        let cfg = ConnConfig {
            session: Session::new(1, 0, 1, policy),
            role: ReconnectRole::Dialer {
                redial: Redial::Uds("/nonexistent/smi-no-such-listener.sock".into()),
            },
            ..basic(&[])
        };
        let (conn_a, mut pump_a, sb, health) = conn_to_raw(cfg);
        let mut tx = conn_a.tx(0, 0);
        offer(&mut tx, vec![pkt(1, 0).into()]);
        sb.shutdown().unwrap();
        drop(sb);
        let mut was_reconnecting = false;
        let start = Instant::now();
        loop {
            let step = pump_a.poll();
            was_reconnecting |= health.any_reconnecting();
            if matches!(step, Step::Done) || health.peer_down().is_some() {
                break;
            }
            assert!(start.elapsed() < Duration::from_secs(20), "never died");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(was_reconnecting, "must pass through Reconnecting");
        assert!(!health.any_reconnecting());
        let pd = health.peer_down().expect("dead");
        assert!(
            pd.detail.contains("reconnect budget exhausted"),
            "detail: {}",
            pd.detail
        );
        assert_eq!(health.error(), Some(SmiError::PeerDisconnected { rank: 1 }));
    }

    #[test]
    fn conn_delivers_runs_as_views() {
        let (conn_a, mut pump_a, conn_b, mut pump_b, health) = conn_pair();
        let wire = &conn_a.shared.wire;
        let mut rx = conn_b.rx((0, 0));
        let elems: Vec<u8> = (0..100).map(|i| i as u8).collect();
        offer(&mut conn_a.tx(0, 0), vec![run_of(&elems)]);
        let mut got: Vec<u8> = Vec::new();
        for _ in 0..100_000 {
            pump_a.poll();
            pump_b.poll();
            while let LinkRecv::Burst(b) = rx.try_recv() {
                run_bytes(&b, &mut got);
            }
            if got.len() == elems.len() {
                break;
            }
        }
        assert_eq!(got, elems);
        let snap = wire.snapshot();
        assert!(snap.send_syscalls > 0, "send syscalls counted");
        assert!(snap.send_bytes > 0, "send bytes counted");
        assert!(health.peer_down().is_none());
    }

    #[test]
    fn cork_merges_small_bursts_into_one_frame() {
        let (conn_a, mut pump_a, conn_b, mut pump_b, health) = conn_pair();
        let wire = &conn_a.shared.wire;
        let mut tx = conn_a.tx(0, 0);
        let mut rx = conn_b.rx((0, 0));
        // 16 one-packet offers before the pump ever runs: everything after
        // the first must merge into the same untransmitted ring frame.
        for i in 0..16u8 {
            offer(&mut tx, vec![pkt(1, i).into()]);
        }
        {
            let ring = conn_a.shared.ring.lock().unwrap();
            assert_eq!(ring.frames.len(), 1, "cork should merge small bursts");
            assert_eq!(ring.frames[0].0, 1, "one seq for all 16");
        }
        assert_eq!(
            wire.corked_frames.load(Ordering::Relaxed),
            15,
            "15 merges into the first frame"
        );
        let mut seen = Vec::new();
        for _ in 0..100_000 {
            pump_a.poll();
            pump_b.poll();
            while let LinkRecv::Burst(b) = rx.try_recv() {
                seen.extend(b.iter().map(tag));
            }
            if seen.len() == 16 {
                break;
            }
        }
        assert_eq!(seen, (0..16u8).collect::<Vec<_>>());
        assert!(health.peer_down().is_none());
    }

    #[test]
    fn oversized_run_splits_across_frames() {
        let (conn_a, mut pump_a, conn_b, mut pump_b, health) = conn_pair();
        let mut rx = conn_b.rx((0, 0));
        let elems: Vec<u8> = (0..150_000).map(|i| (i * 31) as u8).collect();
        let run = run_of(&elems);
        let total_packets = run.packet_count();
        offer(&mut conn_a.tx(0, 0), vec![run]);
        {
            let ring = conn_a.shared.ring.lock().unwrap();
            assert!(
                ring.frames.len() >= 3,
                "150 kB must split across >=3 frames of <=64 kB, got {}",
                ring.frames.len()
            );
            for (_, buf) in &ring.frames {
                assert!(buf.len() <= FRAME_HEADER_BYTES + FRAME_SPLIT_BYTES);
            }
        }
        let mut got: Vec<u8> = Vec::new();
        let mut packets = 0usize;
        for _ in 0..1_000_000 {
            pump_a.poll();
            pump_b.poll();
            while let LinkRecv::Burst(b) = rx.try_recv() {
                packets += b.iter().map(Frame::packet_count).sum::<usize>();
                run_bytes(&b, &mut got);
            }
            if got.len() == elems.len() {
                break;
            }
        }
        assert_eq!(got, elems, "split delivery must be byte-identical");
        assert_eq!(
            packets, total_packets,
            "packet-aligned splitting preserves the packet count"
        );
        assert!(health.peer_down().is_none());
    }

    /// Outside input: a data frame without the body-length flag, an unknown
    /// item kind, a run item overrunning its frame body and a run of partial
    /// elements each end as a typed stream fault, never a panic or a
    /// delivery.
    #[test]
    fn malformed_frames_are_typed_stream_faults() {
        let header = |len: u32| {
            let mut h = Vec::new();
            h.extend_from_slice(&0u16.to_le_bytes());
            h.extend_from_slice(&0u16.to_le_bytes());
            h.extend_from_slice(&len.to_le_bytes());
            h.extend_from_slice(&1u64.to_le_bytes());
            h
        };
        // A pre-v3 frame: `len` is a packet count, one packed packet follows.
        let mut unflagged = header(1);
        unflagged.extend_from_slice(&pkt(1, 1).pack());
        let mut bad_kind = header(V3_FLAG | 2);
        bad_kind.extend_from_slice(&[7, 0]);
        // A run item claiming 100 payload bytes in a body that holds 4.
        let mut overrun = Vec::new();
        encode_frame_into(&mut overrun, (0, 0), 1, &[run_of(&[1, 2, 3, 4])]);
        let nbytes_at = FRAME_HEADER_BYTES + V3_RUN_ITEM_HEADER - 4;
        overrun[nbytes_at..nbytes_at + 4].copy_from_slice(&100u32.to_le_bytes());
        // A run of shorts whose 3 bytes hold no whole number of elements.
        let shorts = PacketRun::from_elems(0, 1, 0, PacketOp::Send, &[1i16, 2]);
        let mut partial = Vec::new();
        encode_frame_into(&mut partial, (0, 0), 1, &[Frame::Run(shorts)]);
        partial.pop();
        partial[nbytes_at..nbytes_at + 4].copy_from_slice(&3u32.to_le_bytes());
        let mut h = FrameHeader::parse(&partial).unwrap();
        h.len -= 1;
        h.write(&mut partial);
        for (bytes, want) in [
            (unflagged, "corrupt frame"),
            (bad_kind, "corrupt frame"),
            (overrun, "truncated"),
            (partial, "is not whole elements"),
        ] {
            let (conn, mut pump, mut raw, health) = conn_to_raw(basic(&[(0, 0)]));
            raw.write_all(&bytes).unwrap();
            let mut rx = conn.rx((0, 0));
            let mut closed = false;
            for _ in 0..100_000 {
                pump.poll();
                match rx.try_recv() {
                    LinkRecv::Closed => {
                        closed = true;
                        break;
                    }
                    LinkRecv::Burst(b) => panic!("malformed frame delivered: {b:?}"),
                    LinkRecv::Empty => {}
                }
            }
            assert!(closed, "link must close on {want}");
            let pd = health.peer_down().expect("marked down");
            assert!(pd.detail.contains(want), "detail: {}", pd.detail);
        }
    }

    /// Regression (ISSUE 14): after a short write the frame at the cursor is
    /// half on the wire; an ack generated in the same poll must wait for the
    /// frame boundary instead of landing inside that frame's payload.
    #[test]
    fn acks_never_land_inside_a_partially_written_frame() {
        let (conn_a, mut pump_a, conn_b, mut pump_b, health) = conn_pair();
        let (mut tx_a, mut rx_a) = (conn_a.tx(0, 0), conn_a.rx((1, 0)));
        let (mut tx_b, mut rx_b) = (conn_b.tx(1, 0), conn_b.rx((0, 0)));
        // 15 × 60 000 bytes outrun the socket buffer, so A's writes go short
        // while B's one-packet bursts keep A generating acks.
        let runs: Vec<Vec<u8>> = (0..15u32)
            .map(|r| (0..60_000u32).map(|i| (i * 7 + r * 13) as u8).collect())
            .collect();
        for elems in &runs {
            offer(&mut tx_a, vec![run_of(elems)]);
        }
        let total: usize = runs.iter().map(Vec::len).sum();
        let mut got: Vec<u8> = Vec::with_capacity(total);
        let mut trickled = 0u32;
        for round in 0..200_000u32 {
            if let LinkSend::Accepted = tx_b.offer(vec![pkt(0, round as u8).into()]) {
                trickled += 1;
            }
            pump_a.poll();
            pump_b.poll();
            while let LinkRecv::Burst(_) = rx_a.try_recv() {}
            while let LinkRecv::Burst(b) = rx_b.try_recv() {
                run_bytes(&b, &mut got);
            }
            if got.len() >= total || health.peer_down().is_some() {
                break;
            }
        }
        assert!(
            health.peer_down().is_none(),
            "stream fault: {:?}",
            health.peer_down()
        );
        assert!(trickled > 0);
        assert!(got == runs.concat(), "payload corrupted in flight");
    }

    /// The fault plan acts on the flush every connection uses: emission
    /// ordinals count ring frames as they enter the write window, a dropped
    /// or delayed frame stays off the wire, copies travel as boundary bytes,
    /// and the sever fires once its frame is fully written.
    #[test]
    fn injected_faults_shape_the_wire_of_the_one_flush() {
        use crate::transport::faults::{DelaySpec, FaultPlan, LinkFault, SeverSpec};
        let plan = FaultPlan {
            links: vec![LinkFault {
                drop: vec![2],
                duplicate: vec![3],
                delay: vec![DelaySpec { frame: 4, by: 1 }],
                sever: vec![SeverSpec { after_frame: 6 }],
                ..LinkFault::clean(0, 1)
            }],
        };
        let mut cfg = basic(&[]);
        cfg.faults = plan.injector_for(0, 1);
        let (conn_a, mut pump_a, mut raw, health) = conn_to_raw(cfg);
        let mut tx = conn_a.tx(0, 0);
        // Seven frames too large to cork-merge; the seventh lies past the sever.
        let elems = vec![0xA5u8; CORK_MERGE_CAP];
        for _ in 0..7 {
            offer(&mut tx, vec![run_of(&elems)]);
        }
        while health.peer_down().is_none() {
            pump_a.poll();
        }
        let detail = health.peer_down().expect("severed").detail;
        assert!(detail.contains("injected sever after frame 6"), "{detail}");
        let mut wire = Vec::new();
        raw.read_to_end(&mut wire).unwrap();
        let frame = FRAME_HEADER_BYTES + V3_RUN_ITEM_HEADER + elems.len();
        let seqs: Vec<u64> = wire
            .chunks(frame)
            .map(|f| u64::from_le_bytes(f[8..16].try_into().unwrap()))
            .collect();
        // 2 dropped, 3 twice, 4 held back past 5 and what was admitted with it.
        assert_eq!(seqs, [1, 3, 3, 5, 6, 4]);
        assert_eq!(wire.len(), 6 * frame);
    }

    /// A frame the full demux queue refuses decodes again on every retry;
    /// its inline data packets are charged once, when the queue takes it.
    #[test]
    fn refused_frames_meter_their_inline_packets_once() {
        let (conn, mut pump, mut raw, health) = conn_to_raw(basic(&[(0, 0)]));
        let frames = INBOUND_QUEUE_CAP + 10;
        let mut bytes = Vec::new();
        for seq in 1..=frames as u64 {
            encode_frame_into(&mut bytes, (0, 0), seq, &[pkt(1, seq as u8).into()]);
        }
        raw.write_all(&bytes).unwrap();
        let mut rx = conn.rx((0, 0));
        let mut delivered = 0;
        for round in 0..100_000 {
            pump.poll();
            // Let the queue sit full for a while before draining it.
            if round >= 100 {
                while let LinkRecv::Burst(b) = rx.try_recv() {
                    delivered += b.len();
                }
            }
            if delivered == frames {
                break;
            }
        }
        assert_eq!(delivered, frames);
        assert!(health.peer_down().is_none());
        let copies = conn.shared.copies.count();
        assert_eq!(copies, (frames * smi_wire::PAYLOAD_BYTES) as u64);
    }

    /// Byte offsets at which a scripted pipe cuts an operation short: it
    /// stops exactly there, and the next call on the offset fails with the
    /// given kind (`None`: a short operation only).
    type Cuts = VecDeque<(usize, Option<io::ErrorKind>)>;

    /// How many of `want` bytes may move from offset `at`, or the error a
    /// cut there injects.
    fn cut(cuts: &mut Cuts, at: usize, want: usize) -> io::Result<usize> {
        while let Some(&(off, kind)) = cuts.front() {
            if off > at {
                return Ok(want.min(off - at));
            }
            cuts.pop_front();
            if let Some(kind) = kind {
                return Err(kind.into());
            }
        }
        Ok(want)
    }

    /// One direction of a scripted pipe: every byte ever written (kept for
    /// inspection), how far the reader got, both ends' cuts, and whether
    /// the writer closed it.
    #[derive(Default)]
    struct Pipe {
        bytes: Vec<u8>,
        read: usize,
        wcuts: Cuts,
        rcuts: Cuts,
        eof: bool,
    }

    /// A scripted non-blocking stream: writes land in `tx`, reads come from
    /// `rx`; an empty `rx` is `WouldBlock`, or EOF once closed.
    struct Scripted {
        tx: Arc<Mutex<Pipe>>,
        rx: Arc<Mutex<Pipe>>,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let mut p = self.rx.lock().unwrap();
            let (at, avail) = (p.read, p.bytes.len() - p.read);
            if avail == 0 {
                return if p.eof {
                    Ok(0)
                } else {
                    Err(io::ErrorKind::WouldBlock.into())
                };
            }
            let n = cut(&mut p.rcuts, at, avail.min(buf.len()))?;
            buf[..n].copy_from_slice(&p.bytes[at..at + n]);
            p.read += n;
            Ok(n)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut p = self.tx.lock().unwrap();
            let (at, want) = (p.bytes.len(), bufs.iter().map(|b| b.len()).sum());
            let n = cut(&mut p.wcuts, at, want)?;
            let mut left = n;
            for b in bufs {
                let k = left.min(b.len());
                p.bytes.extend_from_slice(&b[..k]);
                left -= k;
            }
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl From<SocketStream> for Scripted {
        fn from(_: SocketStream) -> Scripted {
            unreachable!("a scripted pump never resumes")
        }
    }

    impl Stream for Scripted {
        fn shutdown(&self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Cuts every `step` bytes, cycling WouldBlock, a bare short operation
    /// and Interrupted.
    fn every(step: usize, upto: usize) -> Cuts {
        let kinds = [
            Some(io::ErrorKind::WouldBlock),
            None,
            Some(io::ErrorKind::Interrupted),
        ];
        (1..upto / step).map(|i| (i * step, kinds[i % 3])).collect()
    }

    /// Two scripted streams joined back to back: `a`'s writes are `b`'s
    /// reads and the other way round.
    fn scripted_pair(ab: Pipe, ba: Pipe) -> (Scripted, Scripted, Arc<Mutex<Pipe>>) {
        let (ab, ba) = (Arc::new(Mutex::new(ab)), Arc::new(Mutex::new(ba)));
        let a = Scripted {
            tx: ab.clone(),
            rx: ba.clone(),
        };
        (
            a,
            Scripted {
                tx: ba,
                rx: ab.clone(),
            },
            ab,
        )
    }

    /// The pump over a scripted stream that cuts writes and reads short,
    /// and fails them with WouldBlock and Interrupted, at fixed byte offsets
    /// in both directions: every burst arrives in order, and the bytes A
    /// wrote parse as whole frames, acks only between them, although A's
    /// writes stopped mid-frame while it had acks to send.
    #[test]
    fn scripted_cuts_deliver_in_order_and_keep_acks_on_frame_boundaries() {
        let ab = Pipe {
            wcuts: every(4_099, 1 << 21),
            rcuts: every(3_001, 1 << 21),
            ..Pipe::default()
        };
        let ba = Pipe {
            wcuts: every(97, 1 << 16),
            rcuts: every(61, 1 << 16),
            ..Pipe::default()
        };
        let (sa, sb, log) = scripted_pair(ab, ba);
        let health = FabricHealth::default();
        let (conn_a, mut pump_a) = SocketConn::new(sa, basic(&[(1, 0)]), health.clone());
        let (conn_b, mut pump_b) = SocketConn::new(sb, basic(&[(0, 0)]), health.clone());
        let (mut tx_a, mut rx_a) = (conn_a.tx(0, 0), conn_a.rx((1, 0)));
        let (mut tx_b, mut rx_b) = (conn_b.tx(1, 0), conn_b.rx((0, 0)));
        // Runs from 1 byte to past the split threshold, and B's one-packet
        // bursts that keep A acking.
        let runs: Vec<Vec<u8>> = (0..40u32)
            .map(|r| (0..(r * r * 97 + 1)).map(|i| (i * 7 + r) as u8).collect())
            .collect();
        let total: usize = runs.iter().map(Vec::len).sum();
        let (mut got, mut back, mut sent_back, mut next_run) = (Vec::new(), Vec::new(), 0u8, 0);
        for _ in 0..1_000_000 {
            if let Some(elems) = runs.get(next_run) {
                next_run += usize::from(matches!(
                    tx_a.offer(vec![run_of(elems)]),
                    LinkSend::Accepted
                ));
            }
            if sent_back < 200
                && matches!(
                    tx_b.offer(vec![pkt(0, sent_back).into()]),
                    LinkSend::Accepted
                )
            {
                sent_back += 1;
            }
            pump_a.poll();
            pump_b.poll();
            while let LinkRecv::Burst(b) = rx_a.try_recv() {
                back.extend(b.iter().map(tag));
            }
            while let LinkRecv::Burst(b) = rx_b.try_recv() {
                run_bytes(&b, &mut got);
            }
            if got.len() == total && back.len() == 200 {
                break;
            }
        }
        assert!(health.peer_down().is_none(), "{:?}", health.peer_down());
        assert!(got == runs.concat(), "runs corrupted or reordered");
        assert_eq!(back, (0..200u8).collect::<Vec<_>>());
        // Everything A wrote is a sequence of whole frames.
        let log = log.lock().unwrap();
        let (mut at, mut seq, mut acks, mut cut_mid_frame) = (0, 0, 0, false);
        while at < log.bytes.len() {
            let (h, need) = whole_frame(&log.bytes[at..])
                .expect("frames only")
                .expect("no truncated tail");
            cut_mid_frame |= (at + 1..at + need).any(|off| off % 4_099 == 0);
            if h.tag.0 == ACK_RANK {
                acks += 1;
            } else {
                assert_eq!(h.seq, seq + 1, "data frames in seq order");
                seq = h.seq;
                let block: Arc<[u8]> = log.bytes[at..at + need].into();
                decode_body(&block, FRAME_HEADER_BYTES, need - FRAME_HEADER_BYTES).unwrap();
            }
            at += need;
        }
        assert!(
            acks > 0 && cut_mid_frame,
            "the script must cut frames while acks flow"
        );
    }

    /// The bytes of a peer that sent data frames `1..=n`, one packet each,
    /// and then, with `fin`, its fin.
    fn peer_bytes(n: u64, fin: bool) -> Vec<u8> {
        let mut bytes = Vec::new();
        for seq in 1..=n {
            encode_frame_into(&mut bytes, (0, 0), seq, &[pkt(1, seq as u8).into()]);
        }
        if fin {
            encode_control_into(&mut bytes, FIN_RANK, 0);
        }
        bytes
    }

    /// A pump over a scripted stream whose inbound side holds `inbound`,
    /// with the pipes both ways to script and inspect.
    fn scripted_pump(
        cfg: ConnConfig,
        inbound: Pipe,
    ) -> (
        SocketConn,
        ScriptedPump,
        [Arc<Mutex<Pipe>>; 2],
        FabricHealth,
    ) {
        let (sa, sb, out) = scripted_pair(Pipe::default(), inbound);
        let health = FabricHealth::default();
        let (conn, pump) = SocketConn::new(sa, cfg, health.clone());
        (conn, pump, [out, sb.tx], health)
    }

    type ScriptedPump = SocketPump<Scripted>;

    /// Poll until the pump ends; its step count, or `None` if it did not.
    fn poll_to_end(pump: &mut ScriptedPump, polls: usize) -> Option<usize> {
        (1..=polls).find(|_| pump.poll() == Step::Done)
    }

    /// An EOF after the peer's fin is a clean close: every frame before the
    /// fin is delivered, the pump ends, and nothing counts as a fault.
    #[test]
    fn fin_then_eof_is_a_clean_close() {
        let inbound = Pipe {
            bytes: peer_bytes(3, true),
            eof: true,
            ..Pipe::default()
        };
        let (conn, mut pump, _, health) = scripted_pump(basic(&[(0, 0)]), inbound);
        let mut rx = conn.rx((0, 0));
        assert!(poll_to_end(&mut pump, 100).is_some(), "the pump must end");
        let mut got = Vec::new();
        while let LinkRecv::Burst(b) = rx.try_recv() {
            got.extend(b.iter().map(tag));
        }
        assert_eq!(got, [1, 2, 3]);
        assert!(health.peer_down().is_none(), "{:?}", health.peer_down());
        assert_eq!(conn.shared.wire.snapshot().stream_faults, 0);
    }

    /// An EOF without the peer's fin is a fault: counted, and (recovery off)
    /// the peer is down and the links close.
    #[test]
    fn eof_without_fin_is_a_counted_fault() {
        let inbound = Pipe {
            bytes: peer_bytes(3, false),
            eof: true,
            ..Pipe::default()
        };
        let (conn, mut pump, _, health) = scripted_pump(basic(&[(0, 0)]), inbound);
        let mut rx = conn.rx((0, 0));
        poll_to_end(&mut pump, 100);
        let pd = health
            .peer_down()
            .expect("an EOF before the fin is a fault");
        assert!(pd.detail.contains("EOF"), "{}", pd.detail);
        assert_eq!(conn.shared.wire.snapshot().stream_faults, 1);
        let mut delivered = 0;
        while let LinkRecv::Burst(b) = rx.try_recv() {
            delivered += b.len();
        }
        assert_eq!(delivered, 3);
        assert!(matches!(rx.try_recv(), LinkRecv::Closed));
    }

    /// A pump whose group finishes while a frame is half on the wire writes
    /// the rest of that frame, then its fin; the frame offered behind it is
    /// never written.
    #[test]
    fn a_finishing_pump_completes_a_partly_written_frame_before_its_fin() {
        let (conn, mut pump, [out, _], health) = scripted_pump(basic(&[]), Pipe::default());
        out.lock().unwrap().wcuts = [(100, Some(io::ErrorKind::WouldBlock))].into();
        let mut tx = conn.tx(0, 0);
        let big = vec![0x5Au8; CORK_FLUSH_BYTES];
        offer(&mut tx, vec![run_of(&big)]);
        pump.poll();
        assert_eq!(out.lock().unwrap().bytes.len(), 100, "cut mid-frame");
        offer(&mut tx, vec![run_of(&[1, 2, 3])]);
        health.finish();
        for _ in 0..10 {
            pump.poll();
        }
        let bytes = out.lock().unwrap().bytes.clone();
        let (h, need) = whole_frame(&bytes).unwrap().expect("the frame is whole");
        assert_eq!(
            (h.seq, need),
            (1, FRAME_HEADER_BYTES + V3_RUN_ITEM_HEADER + big.len())
        );
        let mut fin = Vec::new();
        encode_control_into(&mut fin, FIN_RANK, 0);
        assert_eq!(&bytes[need..], &fin[..], "the fin, and nothing after it");
        assert_eq!(conn.shared.wire.snapshot().stream_faults, 0);
    }

    /// After its fin a pump writes nothing, not even the acks the peer's
    /// last data frames would earn or the bursts still offered to it; it
    /// reads on to the peer's fin and then ends.
    #[test]
    fn nothing_is_written_after_the_fin() {
        let (conn, mut pump, [out, inbound], health) =
            scripted_pump(basic(&[(0, 0)]), Pipe::default());
        health.finish();
        assert_eq!(pump.poll(), Step::Progress);
        let mut fin = Vec::new();
        encode_control_into(&mut fin, FIN_RANK, 0);
        assert_eq!(out.lock().unwrap().bytes, fin);
        inbound.lock().unwrap().bytes = peer_bytes(5, false);
        offer(&mut conn.tx(0, 0), vec![pkt(1, 9).into()]);
        assert_eq!(poll_to_end(&mut pump, 50), None, "no fin from the peer yet");
        assert_eq!(out.lock().unwrap().bytes, fin, "written after the fin");
        let mut rest = peer_bytes(0, true);
        inbound.lock().unwrap().bytes.append(&mut rest);
        assert!(poll_to_end(&mut pump, 50).is_some(), "both fins are out");
        assert_eq!(out.lock().unwrap().bytes, fin);
        assert_eq!(conn.shared.wire.snapshot().stream_faults, 0);
    }

    /// A pump that is reconnecting when its group finishes ends at once,
    /// although its next re-dial is a minute away.
    #[test]
    fn a_finishing_pump_in_reconnecting_ends() {
        let cfg = ConnConfig {
            session: Session::new(
                1,
                0,
                1,
                ReconnectPolicy::retry_fixed(5, Duration::from_secs(60)),
            ),
            role: ReconnectRole::Dialer {
                redial: Redial::Uds("/nonexistent/smi-no-such-listener.sock".into()),
            },
            ..basic(&[])
        };
        let inbound = Pipe {
            eof: true,
            ..Pipe::default()
        };
        let (conn, mut pump, _, health) = scripted_pump(cfg, inbound);
        assert_eq!(poll_to_end(&mut pump, 5), None);
        assert!(health.any_reconnecting(), "the EOF starts a reconnect");
        assert_eq!(conn.shared.wire.snapshot().stream_faults, 1);
        health.finish();
        assert_eq!(pump.poll(), Step::Done);
        assert!(health.peer_down().is_none());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        /// Outside bytes into a pump: a valid frame, then anything, cut at
        /// any offsets. The pump delivers the valid frame and then either
        /// keeps waiting for more bytes or closes the link with a typed
        /// fault; it never panics.
        #[test]
        fn a_pump_survives_arbitrary_inbound_bytes(
            tail in proptest::prop::collection::vec(proptest::any::<u8>(), 0..300),
            cut_at in proptest::prop::collection::vec(0usize..400, 0..4),
        ) {
            let mut bytes = Vec::new();
            encode_frame_into(&mut bytes, (0, 0), 1, &[pkt(1, 1).into()]);
            bytes.extend_from_slice(&tail);
            let mut rcuts: Vec<usize> = cut_at.into_iter().filter(|&c| c > 0).collect();
            rcuts.sort_unstable();
            rcuts.dedup();
            let ba = Pipe {
                bytes,
                rcuts: rcuts.into_iter().map(|c| (c, Some(io::ErrorKind::Interrupted))).collect(),
                ..Pipe::default()
            };
            let (sa, _sb, _) = scripted_pair(Pipe::default(), ba);
            let health = FabricHealth::default();
            let (conn, mut pump) = SocketConn::new(sa, basic(&[(0, 0)]), health.clone());
            let mut rx = conn.rx((0, 0));
            let mut delivered = 0;
            for _ in 0..64 {
                pump.poll();
                while let LinkRecv::Burst(b) = rx.try_recv() {
                    delivered += b.len();
                }
            }
            proptest::prop_assert!(delivered >= 1, "the valid frame was not delivered");
            if let Some(pd) = health.peer_down() {
                proptest::prop_assert!(!pd.detail.is_empty());
            }
        }
    }

    /// An offer whose one frame can never fit the replay budget closes the
    /// connection with the typed error, not backpressure.
    #[test]
    fn replay_overflow_closes_the_conn_with_a_typed_error() {
        let (sa, _sb, _) = scripted_pair(Pipe::default(), Pipe::default());
        let health = FabricHealth::default();
        let cfg = ConnConfig {
            replay_budget: FRAME_HEADER_BYTES + 1 + PACKET_BYTES, // one packet item max
            ..basic(&[])
        };
        let (conn_a, _pump_a) = SocketConn::new(sa, cfg, health.clone());
        let mut tx = conn_a.tx(0, 0);
        let burst = vec![pkt(1, 0).into(), pkt(1, 1).into()];
        assert!(matches!(tx.offer(burst), LinkSend::Closed));
        match health.error() {
            Some(SmiError::ReplayOverflow { needed, budget }) => {
                assert_eq!(needed, FRAME_HEADER_BYTES + 2 * (1 + PACKET_BYTES));
                assert_eq!(budget, FRAME_HEADER_BYTES + 1 + PACKET_BYTES);
            }
            other => panic!("expected ReplayOverflow, got {other:?}"),
        }
        assert!(matches!(tx.offer(vec![pkt(1, 2).into()]), LinkSend::Closed));
    }

    /// A full ring hands the burst back to the CK machine untouched.
    #[test]
    fn full_ring_hands_the_burst_back() {
        let (sa, _sb, _) = scripted_pair(Pipe::default(), Pipe::default());
        let health = FabricHealth::default();
        let cfg = ConnConfig {
            replay_budget: 2 * (FRAME_HEADER_BYTES + 1 + PACKET_BYTES),
            ..basic(&[])
        };
        let (conn_a, _pump_a) = SocketConn::new(sa, cfg, health.clone());
        let mut tx = conn_a.tx(0, 0);
        offer(&mut tx, vec![pkt(1, 0).into()]);
        offer(&mut tx, vec![pkt(1, 1).into()]);
        match tx.offer(vec![pkt(1, 2).into()]) {
            LinkSend::Full(b) => assert_eq!(tag(&b[0]), 2),
            other => panic!("expected Full, got {other:?}"),
        }
        assert!(health.peer_down().is_none());
    }
}
