//! The socket link backend: framed [`NetworkPacket`](smi_wire::NetworkPacket)
//! bursts over nonblocking TCP or Unix-domain sockets, with a session/replay
//! layer that heals mid-stream disconnects losslessly.
//!
//! One connection is opened per pair of OS processes and multiplexes every
//! topology edge crossing that boundary. The layer has three parts:
//!
//! * [`codec`] — pure `Burst ↔ bytes`: the one frame-header layout, data
//!   frame bodies, acks and hellos;
//! * [`session`] — the seq/replay/ack/resume rules, with no I/O and no
//!   clock of its own;
//! * [`pump`] — the [`Pollable`](crate::transport::executor::Pollable) that
//!   moves bytes between a session and a [`pump::Stream`], registered with
//!   the same sharded executor that drives the CK machines.
//!
//! This file holds what they share: the fabric health board, the socket
//! stream and listener wrappers, the blocking hello exchange and the
//! [`ReconnectHub`] that owns the process's data listener.

use std::collections::HashMap;
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::error::SmiError;
use crate::transport::WireStats;

mod codec;
mod pump;
mod session;

pub(crate) use codec::Hello;
pub(crate) use pump::{ConnConfig, ReconnectRole, SocketConn};
pub(crate) use session::{fresh_session_id, Session};

/// Read timeout of the blocking resume-hello exchange, on both sides: the
/// dialer's wait for the reply and the listening side's read of each
/// accepted re-dial's hello. A failed exchange costs one reconnect attempt,
/// so this also bounds how long one attempt can occupy an executor worker.
const RESUME_IO_TIMEOUT: Duration = Duration::from_secs(1);

/// Why a peer was declared dead: an unrecoverable link fault, or a local
/// replay-budget misconfiguration (maps to [`SmiError::ReplayOverflow`]).
#[derive(Debug, Clone)]
pub(crate) enum PeerDownKind {
    /// The connection died and recovery was off or exhausted.
    Link,
    /// One frame of `needed` bytes exceeded the whole replay `budget`; see
    /// [`SmiError::ReplayOverflow`].
    ReplayOverflow { needed: usize, budget: usize },
}

/// What is known about a dead peer process, for diagnostics.
#[derive(Debug, Clone)]
pub(crate) struct PeerDown {
    /// The dead process; its `rank` is what [`SmiError::PeerDisconnected`]
    /// reports.
    pub peer: PeerInfo,
    /// What the pump observed (EOF, truncated frame, I/O error...).
    pub detail: String,
    /// Classification; selects the error channel ops surface.
    pub kind: PeerDownKind,
}

/// Identity of the peer process behind one connection; the template a
/// [`SocketPump`](pump::SocketPump) turns into a [`PeerDown`] when the link
/// dies.
#[derive(Debug, Clone)]
pub(crate) struct PeerInfo {
    /// Lowest world rank hosted by the peer process.
    pub rank: usize,
    /// Peer process index in the process plan.
    pub process: usize,
    /// Backend name (`"tcp"` / `"uds"`).
    pub backend: &'static str,
    /// Peer address as resolved at connect time.
    pub addr: String,
}

impl PeerInfo {
    /// This peer as dead, for `detail` of `kind`.
    pub fn down(&self, detail: String, kind: PeerDownKind) -> PeerDown {
        PeerDown {
            peer: self.clone(),
            detail,
            kind,
        }
    }
}

/// One peer currently in mid-stream recovery, for diagnostics
/// (`stall_message` reports these).
#[derive(Debug, Clone)]
pub(crate) struct ReconnectInfo {
    /// Lowest world rank hosted by the reconnecting peer process.
    pub rank: usize,
    /// Peer process index in the process plan.
    pub process: usize,
    /// Reconnect attempt currently in flight (0-based).
    pub attempt: u32,
    /// The fault that started (or most recently extended) the recovery.
    pub detail: String,
}

#[derive(Debug, Default)]
struct HealthInner {
    down: AtomicBool,
    first: Mutex<Option<PeerDown>>,
    reconnecting: Mutex<HashMap<usize, ReconnectInfo>>,
    nrecon: AtomicUsize,
    healed: AtomicUsize,
    /// Raised when the group leaves its completion barrier.
    finishing: AtomicBool,
    /// Pumps not yet dropped.
    streams: AtomicUsize,
}

/// Fabric-wide peer-liveness board, shared between socket pumps, endpoint
/// tables and the task watchdog. Peers move `Healthy → Reconnecting
/// {attempt} → Healthy | Dead`; only `Dead` surfaces an error to channel
/// ops (they keep polling through `Reconnecting`). The default (in-memory
/// fabric) never reports anything. It also carries the end of the run to
/// the group's pumps ([`FabricHealth::finish`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct FabricHealth {
    inner: Arc<HealthInner>,
}

impl FabricHealth {
    /// Record a dead peer. The first report wins; later ones only keep the
    /// `down` flag set. Ends any in-progress recovery for that process.
    pub fn mark_down(&self, pd: PeerDown) {
        let process = pd.peer.process;
        let mut slot = self.inner.first.lock().expect("health lock");
        if slot.is_none() {
            *slot = Some(pd);
        }
        drop(slot);
        self.inner.down.store(true, Ordering::Release);
        let mut rec = self.inner.reconnecting.lock().expect("health lock");
        rec.remove(&process);
        self.inner.nrecon.store(rec.len(), Ordering::Release);
    }

    /// Record that the connection to `info.process` is in mid-stream
    /// recovery (entering, or moving to a later attempt).
    pub fn mark_reconnecting(&self, info: ReconnectInfo) {
        let mut rec = self.inner.reconnecting.lock().expect("health lock");
        rec.insert(info.process, info);
        self.inner.nrecon.store(rec.len(), Ordering::Release);
    }

    /// Record a successful mid-stream recovery for `process`.
    pub fn mark_healthy(&self, process: usize) {
        let mut rec = self.inner.reconnecting.lock().expect("health lock");
        if rec.remove(&process).is_some() {
            self.inner.healed.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.nrecon.store(rec.len(), Ordering::Release);
    }

    /// Whether any connection is currently mid-recovery.
    pub fn any_reconnecting(&self) -> bool {
        self.inner.nrecon.load(Ordering::Acquire) > 0
    }

    /// Snapshot of all in-progress recoveries (for diagnostics).
    pub fn reconnecting_peers(&self) -> Vec<ReconnectInfo> {
        let rec = self.inner.reconnecting.lock().expect("health lock");
        let mut v: Vec<ReconnectInfo> = rec.values().cloned().collect();
        v.sort_by_key(|r| r.process);
        v
    }

    /// Number of successful mid-stream recoveries so far.
    pub fn healed(&self) -> usize {
        self.inner.healed.load(Ordering::Relaxed)
    }

    /// Count one more pump; its drop counts it out.
    fn stream_opened(&self) {
        self.inner.streams.fetch_add(1, Ordering::SeqCst);
    }

    fn stream_dropped(&self) {
        self.inner.streams.fetch_sub(1, Ordering::SeqCst);
    }

    /// Whether the group has left its completion barrier.
    pub fn finishing(&self) -> bool {
        self.inner.finishing.load(Ordering::SeqCst)
    }

    /// Raise the end of the run: every pump finishes the frame it is
    /// writing, writes its fin, reads on to the peer's and ends; a faulted
    /// or reconnecting one ends at once.
    pub fn finish(&self) {
        self.inner.finishing.store(true, Ordering::SeqCst);
    }

    /// Pumps not yet ended (and dropped).
    pub fn streams_open(&self) -> usize {
        self.inner.streams.load(Ordering::SeqCst)
    }

    /// The first recorded peer death, if any.
    pub fn peer_down(&self) -> Option<PeerDown> {
        if !self.inner.down.load(Ordering::Acquire) {
            return None;
        }
        self.inner.first.lock().expect("health lock").clone()
    }

    /// The first recorded peer death as the error channel ops surface.
    pub fn error(&self) -> Option<SmiError> {
        self.peer_down().map(|p| match p.kind {
            PeerDownKind::Link => SmiError::PeerDisconnected { rank: p.peer.rank },
            PeerDownKind::ReplayOverflow { needed, budget } => {
                SmiError::ReplayOverflow { needed, budget }
            }
        })
    }

    /// Upgrade a progress-starvation error (timeout, deadline, stall) to
    /// the recorded peer-death error when a dead peer explains the stall;
    /// all other errors pass through unchanged.
    pub fn escalate(&self, e: SmiError) -> SmiError {
        if matches!(
            e,
            SmiError::Timeout { .. } | SmiError::DeadlineExceeded { .. } | SmiError::Stalled { .. }
        ) {
            if let Some(err) = self.error() {
                return err;
            }
        }
        e
    }
}

/// A connected byte stream of either socket family.
pub(crate) enum SocketStream {
    /// TCP (loopback or cross-host).
    Tcp(TcpStream),
    /// Unix-domain (same host; the low-latency multi-process default).
    Unix(UnixStream),
}

/// `$body` with `$s` bound to the inner stream of either variant.
macro_rules! either {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            SocketStream::Tcp($s) => $body,
            SocketStream::Unix($s) => $body,
        }
    };
}

impl SocketStream {
    /// Toggle nonblocking mode (the pump requires nonblocking; handshake
    /// exchanges run blocking with a read timeout).
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        either!(self, s => s.set_nonblocking(nb))
    }

    /// Bound blocking reads (used only during handshake exchanges).
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        either!(self, s => s.set_read_timeout(t))
    }

    /// Human-readable peer address for diagnostics.
    pub fn peer_label(&self) -> String {
        match self {
            SocketStream::Tcp(s) => s
                .peer_addr()
                .map(|a| format!("tcp://{a}"))
                .unwrap_or_else(|_| "tcp://?".into()),
            SocketStream::Unix(s) => s
                .peer_addr()
                .ok()
                .and_then(|a| a.as_pathname().map(|p| format!("uds://{}", p.display())))
                .unwrap_or_else(|| "uds://<unnamed>".into()),
        }
    }
}

impl pump::Stream for SocketStream {
    fn shutdown(&self) -> io::Result<()> {
        either!(self, s => s.shutdown(std::net::Shutdown::Both))
    }
}

impl Read for SocketStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        either!(self, s => s.read(buf))
    }
}

impl Write for SocketStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        either!(self, s => s.write(buf))
    }

    // Forward explicitly: the default impl would degrade to `write` on the
    // first slice, costing the fast path its syscall amortization.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        either!(self, s => s.write_vectored(bufs))
    }

    fn flush(&mut self) -> io::Result<()> {
        either!(self, s => s.flush())
    }
}

/// A bound data listener of either socket family; the Unix variant owns
/// its filesystem path and removes it on drop.
pub(crate) enum SocketListener {
    /// Loopback (or cross-host) TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener plus the path it is bound to.
    Uds(UnixListener, PathBuf),
}

impl SocketListener {
    /// Bind an ephemeral loopback TCP listener; returns it and its
    /// dialable `host:port` address.
    pub fn bind_tcp() -> io::Result<(SocketListener, String)> {
        let l = TcpListener::bind("127.0.0.1:0")?;
        let addr = l.local_addr()?.to_string();
        Ok((SocketListener::Tcp(l), addr))
    }

    /// Bind a Unix-domain listener at `path` (removed on drop); returns it
    /// and the dialable path string.
    pub fn bind_uds(path: PathBuf) -> io::Result<(SocketListener, String)> {
        let _ = std::fs::remove_file(&path);
        let l = UnixListener::bind(&path)?;
        let addr = path.display().to_string();
        Ok((SocketListener::Uds(l, path), addr))
    }

    /// Toggle nonblocking accept mode.
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            SocketListener::Tcp(l) => l.set_nonblocking(nb),
            SocketListener::Uds(l, _) => l.set_nonblocking(nb),
        }
    }

    /// Accept one connection (blocking semantics follow the listener's
    /// nonblocking flag).
    pub fn accept(&self) -> io::Result<SocketStream> {
        match self {
            SocketListener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(SocketStream::Tcp(s))
            }
            SocketListener::Uds(l, _) => l.accept().map(|(s, _)| SocketStream::Unix(s)),
        }
    }
}

impl Drop for SocketListener {
    fn drop(&mut self) {
        if let SocketListener::Uds(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// How to re-dial a peer's data listener for mid-stream recovery.
#[derive(Debug, Clone)]
pub(crate) enum Redial {
    /// Dial `host:port` over TCP.
    Tcp(String),
    /// Dial a Unix-domain socket path.
    Uds(String),
}

impl Redial {
    /// The address string, for diagnostics.
    pub fn addr(&self) -> &str {
        match self {
            Redial::Tcp(a) | Redial::Uds(a) => a,
        }
    }

    /// One blocking dial attempt (fast on loopback: either connects or
    /// fails with ECONNREFUSED/ENOENT).
    pub fn connect(&self) -> io::Result<SocketStream> {
        match self {
            Redial::Tcp(a) => {
                let s = TcpStream::connect(a)?;
                s.set_nodelay(true)?;
                Ok(SocketStream::Tcp(s))
            }
            Redial::Uds(a) => UnixStream::connect(a).map(SocketStream::Unix),
        }
    }
}

/// Send a hello frame (blocking mode).
pub(crate) fn send_hello(stream: &mut SocketStream, hello: &Hello) -> io::Result<()> {
    stream.write_all(&hello.encode())?;
    stream.flush()
}

/// Receive the peer's hello frame (blocking mode; callers set a read
/// timeout first).
pub(crate) fn recv_hello(stream: &mut SocketStream) -> io::Result<Hello> {
    let mut b = [0u8; codec::HELLO_BYTES];
    stream.read_exact(&mut b)?;
    Hello::parse(&b)
}

/// Mailbox where a re-dial accepted for one `(peer process, session)` waits
/// for the [`SocketPump`](pump::SocketPump) that lost that stream.
type ReconnectSlot = Mutex<Option<(SocketStream, Hello)>>;

/// One process's re-dial endpoint: the long-lived data listener, plus the
/// reconnect slots of its listener-role pumps keyed by `(peer process,
/// session)`. Nothing accepts on the listener until one of those pumps is
/// reconnecting (see [`ReconnectHub::accept_redials`]).
pub(crate) struct ReconnectHub {
    slots: Mutex<HashMap<(usize, u64), Arc<ReconnectSlot>>>,
    listener: Option<SocketListener>,
}

impl ReconnectHub {
    /// A hub with no slots over the group's data listener (switched to
    /// nonblocking), if any peer dials this process.
    pub fn new(listener: Option<SocketListener>) -> io::Result<Arc<ReconnectHub>> {
        if let Some(l) = &listener {
            l.set_nonblocking(true)?;
        }
        Ok(Arc::new(ReconnectHub {
            slots: Mutex::default(),
            listener,
        }))
    }

    fn register(&self, peer_proc: usize, session: u64) -> Arc<ReconnectSlot> {
        let slot = Arc::new(ReconnectSlot::default());
        let mut slots = self.slots.lock().expect("hub lock");
        slots.insert((peer_proc, session), slot.clone());
        slot
    }

    fn unregister(&self, peer_proc: usize, session: u64) {
        let mut slots = self.slots.lock().expect("hub lock");
        slots.remove(&(peer_proc, session));
    }

    /// Route an accepted resume stream to its pump's slot, or drop it when
    /// no pump owns that `(process, session)`.
    fn deposit(&self, stream: SocketStream, hello: Hello) {
        let slots = self.slots.lock().expect("hub lock");
        if let Some(slot) = slots.get(&(hello.proc, hello.session)) {
            *slot.lock().expect("slot lock") = Some((stream, hello));
        }
    }

    /// Accept every re-dial queued on the data listener: a nonblocking
    /// `accept`, a hello read bounded by [`RESUME_IO_TIMEOUT`], then
    /// [`ReconnectHub::deposit`] into whichever slot it names (possibly
    /// another connection's). Only a listener-role pump that is already
    /// reconnecting calls this. That is enough because a re-dial only
    /// follows a fault, and every fault path shuts the old stream down, so
    /// the listening side sees the fault too; until then the kernel's
    /// backlog holds the re-dial.
    fn accept_redials(&self, wire: &WireStats) {
        let Some(listener) = &self.listener else {
            return;
        };
        loop {
            wire.accepts.fetch_add(1, Ordering::Relaxed);
            let Ok(mut s) = listener.accept() else {
                return; // drained (WouldBlock), or nothing usable
            };
            let hello = s
                .set_nonblocking(false)
                .and_then(|()| s.set_read_timeout(Some(RESUME_IO_TIMEOUT)))
                .and_then(|()| recv_hello(&mut s));
            // Bootstrap hellos and unknown sessions are dropped.
            if let Ok(hello @ Hello { resume: true, .. }) = hello {
                self.deposit(s, hello);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_roundtrip() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let (mut a, mut b) = (SocketStream::Unix(a), SocketStream::Unix(b));
        let hello = Hello {
            proc: 3,
            session: 0xDEAD_BEEF_0BAD_F00D,
            resume: true,
            last_recv: 42,
        };
        send_hello(&mut a, &hello).unwrap();
        assert_eq!(recv_hello(&mut b).unwrap(), hello);
        let initial = Hello::initial(7, 9);
        send_hello(&mut a, &initial).unwrap();
        assert_eq!(recv_hello(&mut b).unwrap(), initial);
    }

    #[test]
    fn health_transitions_healthy_reconnecting_healthy_and_dead() {
        let health = FabricHealth::default();
        assert!(!health.any_reconnecting());
        assert!(health.error().is_none());
        // Healthy → Reconnecting.
        health.mark_reconnecting(ReconnectInfo {
            rank: 2,
            process: 1,
            attempt: 0,
            detail: "read failed".into(),
        });
        assert!(health.any_reconnecting());
        assert!(health.error().is_none(), "Reconnecting must not error");
        let peers = health.reconnecting_peers();
        assert_eq!(peers.len(), 1);
        assert_eq!(peers[0].process, 1);
        // Attempt bump keeps a single entry.
        health.mark_reconnecting(ReconnectInfo {
            rank: 2,
            process: 1,
            attempt: 3,
            detail: "re-dial refused".into(),
        });
        assert_eq!(health.reconnecting_peers().len(), 1);
        assert_eq!(health.reconnecting_peers()[0].attempt, 3);
        // Reconnecting → Healthy.
        health.mark_healthy(1);
        assert!(!health.any_reconnecting());
        assert_eq!(health.healed(), 1);
        assert!(health.error().is_none());
        // Reconnecting → Dead (budget exhaustion).
        health.mark_reconnecting(ReconnectInfo {
            rank: 2,
            process: 1,
            attempt: 9,
            detail: "re-dial refused".into(),
        });
        let peer = PeerInfo {
            rank: 2,
            process: 1,
            backend: "uds",
            addr: "test".into(),
        };
        let detail = "reconnect budget exhausted after 10 attempts".to_string();
        health.mark_down(peer.down(detail, PeerDownKind::Link));
        assert!(!health.any_reconnecting(), "Dead clears Reconnecting");
        assert_eq!(health.error(), Some(SmiError::PeerDisconnected { rank: 2 }));
        // Healing count unaffected by the failed recovery.
        assert_eq!(health.healed(), 1);
    }
}
