//! The eight workloads, their rank tasks, and one repetition of a workload:
//! a single launched fabric over which every pair or collective streams its
//! transient messages in a closed loop (the next message opens only after
//! the previous one completed), cut into setup / stream / teardown.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::api::{
    self, Bcast, Communicator, Counts, Fabric, PortOp, RankTask, Reduce, Rx, SmiCtx, SmiError,
    TaskFactory, TaskStatus, Tx,
};
use crate::stats::percentile;
use crate::trace::{now_ns, Kind, Probe, TraceCfg};

/// Who talks to whom.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Disjoint unidirectional pairs: neighbours `2i → 2i+1` in memory,
    /// `i → i + ranks/2` (every element crosses the socket) when split.
    Pairs,
    /// Rank 0 sends a message on port 0 to `peer`, which echoes it on
    /// port 1; all other ranks idle.
    PingPong { peer: usize },
    /// Broadcast from rank 0 to every rank.
    Bcast,
    /// One streaming add-reduction to rank 0, fed chunk by chunk; a chunk
    /// plays the role of a message.
    Reduce,
}

/// One named workload. `msgs` and `elems` are per stream and repetition.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub fabric: Fabric,
    pub shape: Shape,
    pub msgs: u32,
    pub elems: usize,
}

const fn inmem(ranks: usize, workers: usize) -> Fabric {
    Fabric {
        ranks,
        split_uds: false,
        workers,
        tree_collectives: false,
    }
}

const fn uds(ranks: usize) -> Fabric {
    Fabric {
        ranks,
        split_uds: true,
        workers: 1,
        tree_collectives: false,
    }
}

/// The workloads, in the order they run and are documented. Sizes give a
/// stream phase of roughly one second on the 2-core reference container.
pub const SPECS: [Spec; 8] = [
    Spec {
        name: "p2p_w1",
        why: "single-thread baseline: framing, endpoint FIFOs and CK forwarding do all the work; sockets and executor contention are bypassed",
        fabric: inmem(64, 1),
        shape: Shape::Pairs,
        msgs: 200,
        elems: 8192,
    },
    Spec {
        name: "p2p_w2",
        why: "same inputs as p2p_w1 on 2 workers: only the executor differs (run-queue locks, stealing, parking)",
        fabric: inmem(64, 2),
        shape: Shape::Pairs,
        msgs: 200,
        elems: 8192,
    },
    Spec {
        name: "p2p_uds",
        why: "the socket layer carries every byte in large unidirectional frames; in-memory workloads bypass it",
        fabric: uds(4),
        shape: Shape::Pairs,
        msgs: 500,
        elems: 32768,
    },
    Spec {
        name: "reduce_uds",
        why: "the socket layer the opposite way: small data frames with credits flowing back, where batching that helps p2p_uds can hurt",
        fabric: uds(4),
        shape: Shape::Reduce,
        msgs: 2048,
        elems: 1024,
    },
    Spec {
        name: "bcast_tree_32r",
        why: "collectives layer: handshake, tree fan-out, Arc re-addressing and multi-hop CK forwarding on 32 ranks",
        // One worker: on two, 3-10 % of the broadcasts stall 20-60 ms in the
        // executor (README, known gaps), which is p2p_w2's subject and drowns
        // the collectives layer this workload is about.
        fabric: Fabric {
            ranks: 32,
            split_uds: false,
            workers: 1,
            tree_collectives: true,
        },
        shape: Shape::Bcast,
        msgs: 200,
        elems: 4096,
    },
    Spec {
        name: "pingpong_inmem",
        why: "one-packet round trips over 7 hops: open/close cost and per-hop CK polling, no bulk path at all",
        fabric: inmem(8, 1),
        shape: Shape::PingPong { peer: 7 },
        msgs: 12_000,
        elems: api::ELEMS_PER_PACKET,
    },
    Spec {
        name: "pingpong_uds",
        why: "latency through the socket layer: cork deferral, flush and syscall cost, where a throughput-minded batching change is predicted to cost",
        fabric: uds(4),
        shape: Shape::PingPong { peer: 2 },
        msgs: 20_000,
        elems: api::ELEMS_PER_PACKET,
    },
    Spec {
        name: "launch_256r",
        why: "setup-dominated: route generation and per-edge wiring of 256 ranks do most of the work, steady-state streaming almost none",
        fabric: inmem(256, 1),
        shape: Shape::Pairs,
        msgs: 16,
        elems: 512,
    },
];

impl Spec {
    /// Messages whose receipt a consumer verifies in a repetition of `msgs`
    /// messages per stream — the denominator of the failed-operation count.
    pub fn attempted(&self, msgs: u32) -> u64 {
        let m = u64::from(msgs);
        match self.shape {
            Shape::Pairs => m * (self.fabric.ranks / 2) as u64,
            Shape::PingPong { .. } => 2 * m,
            Shape::Bcast => m * (self.fabric.ranks - 1) as u64,
            Shape::Reduce => m,
        }
    }

    fn role(&self, rank: usize) -> Role {
        match self.shape {
            // Senders and receivers of pair `stream`: `2i → 2i+1` in
            // memory, `i → i + n/2` across the split.
            Shape::Pairs => {
                let half = self.fabric.ranks / 2;
                let (sender, stream, peer) = if self.fabric.split_uds {
                    (rank < half, rank % half, (rank + half) % (2 * half))
                } else {
                    (rank.is_multiple_of(2), rank / 2, rank ^ 1)
                };
                let stream = stream as u32;
                if sender {
                    Role::PairTx { dst: peer, stream }
                } else {
                    Role::PairRx { src: peer, stream }
                }
            }
            Shape::PingPong { peer } if rank == 0 => Role::PingPong {
                peer,
                initiator: true,
            },
            Shape::PingPong { peer } if rank == peer => Role::PingPong {
                peer: 0,
                initiator: false,
            },
            Shape::PingPong { .. } => Role::Idle,
            Shape::Bcast => Role::Bcast,
            Shape::Reduce => Role::Reduce,
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Role {
    Idle,
    PairTx { dst: usize, stream: u32 },
    PairRx { src: usize, stream: u32 },
    PingPong { peer: usize, initiator: bool },
    Bcast,
    Reduce,
}

impl Role {
    fn ports(self) -> Vec<PortOp> {
        match self {
            Role::Idle => vec![],
            Role::PairTx { .. } => vec![PortOp::Send(0)],
            Role::PairRx { .. } => vec![PortOp::Recv(0)],
            Role::PingPong {
                initiator: true, ..
            } => vec![PortOp::Send(0), PortOp::Recv(1)],
            Role::PingPong {
                initiator: false, ..
            } => vec![PortOp::Recv(0), PortOp::Send(1)],
            Role::Bcast => vec![PortOp::Bcast(0)],
            Role::Reduce => vec![PortOp::ReduceAdd(0)],
        }
    }
}

/// Seeded message contents. Producers read `tx`; consumers verify against
/// `expect`, generated a second time from the same seed, so a producer that
/// scribbled on its own buffer cannot vouch for itself. Message `m` of
/// stream `s` is the window at offset `(m + s) % SLIDE`, so consecutive
/// messages differ.
pub struct Payload {
    tx: Vec<i32>,
    expect: Vec<i32>,
}

const SLIDE: usize = 61;

impl Payload {
    pub fn generate(seed: u64, elems: usize) -> Payload {
        let gen = || {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..elems + SLIDE)
                .map(|_| rng.gen_range(i32::MIN..=i32::MAX))
                .collect::<Vec<i32>>()
        };
        Payload {
            tx: gen(),
            expect: gen(),
        }
    }

    fn window(buf: &[i32], stream: u32, msg: u32, n: usize) -> &[i32] {
        let off = (msg as usize + stream as usize) % SLIDE;
        &buf[off..off + n]
    }

    /// The first message of `n` elements (for standalone layer timings).
    pub fn message(&self, n: usize) -> &[i32] {
        self.tx(0, 0, n)
    }

    fn tx(&self, stream: u32, msg: u32, n: usize) -> &[i32] {
        Payload::window(&self.tx, stream, msg, n)
    }

    fn expect(&self, stream: u32, msg: u32, n: usize) -> &[i32] {
        Payload::window(&self.expect, stream, msg, n)
    }
}

/// What one rank task hands back when it ends, successfully or not.
pub struct Outcome {
    pub rank: usize,
    /// Gate opened → task returned `Done` or an error.
    pub begin_ns: u64,
    pub end_ns: u64,
    /// Messages received and verified equal to the regenerated payload.
    pub ok: u64,
    /// Elements of those messages.
    pub elems: u64,
    /// One sample per verified message (see the README for what a
    /// workload's sample spans).
    pub lat_ns: Vec<u64>,
    pub probe: Probe,
}

/// State shared by the tasks of one repetition: the phase timestamps and
/// the outcome drop-box.
struct Shared {
    ranks: usize,
    entered: AtomicUsize,
    last_entered_ns: AtomicU64,
    last_done_ns: AtomicU64,
    /// Per pair: messages its receiver has completed. A sender opens message
    /// `m` only once this reads at least `m + 1 - WINDOW`, which closes the
    /// loop end to end — an eager send "completes" as soon as the local
    /// transport took it, and over a socket a sender left to itself buffers
    /// a whole repetition (180 MiB seen) or none, at the scheduler's whim.
    delivered: Vec<AtomicU32>,
    outcomes: Mutex<Vec<Outcome>>,
}

/// Messages a pair's sender may have outstanding (sent, not yet verified by
/// the receiver): the sender stages the next message while the receiver
/// verifies the previous one. Two keep the path as full as four did (same
/// throughput on every pair workload) and bound what is in flight: with
/// four, `p2p_uds` peaked at 6 or at 12 MiB from one repetition to the next.
const WINDOW: u32 = 2;

/// One step of a rank program; `Driven` wraps it with the start gate and
/// the bookkeeping every role shares.
trait Body: Send {
    fn step(&mut self, o: &mut Outcome) -> Result<TaskStatus, SmiError>;
}

struct Driven {
    body: Box<dyn Body>,
    shared: Arc<Shared>,
    /// Taken when the task ends.
    outcome: Option<Outcome>,
    started: bool,
}

impl RankTask for Driven {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        let Some(o) = self.outcome.as_mut() else {
            return Ok(TaskStatus::Done);
        };
        if !self.started {
            // Start gate: no task streams before the last factory ran, so
            // the setup phase holds no streaming work and vice versa.
            if self.shared.entered.load(Ordering::Acquire) < self.shared.ranks {
                return Ok(TaskStatus::Pending);
            }
            self.started = true;
            o.begin_ns = now_ns();
            o.probe.task_begin();
        }
        let r = self.body.step(o);
        if !matches!(r, Ok(TaskStatus::Progress | TaskStatus::Pending)) {
            o.probe.task_end();
            o.end_ns = now_ns();
            self.shared
                .last_done_ns
                .fetch_max(o.end_ns, Ordering::Relaxed);
            let o = self.outcome.take().expect("outcome present until the end");
            self.shared
                .outcomes
                .lock()
                .expect("no task panics holding the outcome lock")
                .push(o);
        }
        r
    }
}

fn status(progressed: bool) -> TaskStatus {
    if progressed {
        TaskStatus::Progress
    } else {
        TaskStatus::Pending
    }
}

struct Idle;

impl Body for Idle {
    fn step(&mut self, _: &mut Outcome) -> Result<TaskStatus, SmiError> {
        Ok(TaskStatus::Done)
    }
}

/// One outgoing p2p message in flight. `step` returns `(moved, done)`.
struct SendOne {
    ch: Tx,
    off: usize,
}

impl SendOne {
    fn open(
        ctx: &SmiCtx,
        n: usize,
        dst: usize,
        port: usize,
        probe: &mut Probe,
    ) -> Result<SendOne, SmiError> {
        Ok(SendOne {
            ch: Tx::open(ctx, n, dst, port, probe)?,
            off: 0,
        })
    }

    fn step(&mut self, data: &[i32], probe: &mut Probe) -> Result<(bool, bool), SmiError> {
        let mut moved = false;
        if self.off < data.len() {
            let k = self.ch.try_push(&data[self.off..], probe)?;
            self.off += k;
            moved = k > 0;
        }
        let done = self.off == data.len() && self.ch.try_finish(probe)?;
        Ok((moved, done))
    }
}

/// One incoming p2p message in flight. `step` returns `(moved, done)`.
struct RecvOne {
    ch: Rx,
    filled: usize,
}

impl RecvOne {
    fn open(
        ctx: &SmiCtx,
        n: usize,
        src: usize,
        port: usize,
        probe: &mut Probe,
    ) -> Result<RecvOne, SmiError> {
        Ok(RecvOne {
            ch: Rx::open(ctx, n, src, port, probe)?,
            filled: 0,
        })
    }

    fn step(&mut self, buf: &mut [i32], probe: &mut Probe) -> Result<(bool, bool), SmiError> {
        let k = self.ch.try_pop(&mut buf[self.filled..], probe)?;
        self.filled += k;
        Ok((k > 0, self.filled == buf.len()))
    }
}

/// What every streaming role carries.
struct Common {
    ctx: SmiCtx,
    payload: Arc<Payload>,
    msgs: u32,
    n: usize,
    /// Messages completed so far.
    m: u32,
}

struct PairTx {
    c: Common,
    shared: Arc<Shared>,
    dst: usize,
    stream: u32,
    cur: Option<SendOne>,
}

impl Body for PairTx {
    fn step(&mut self, o: &mut Outcome) -> Result<TaskStatus, SmiError> {
        let c = &mut self.c;
        let mut progressed = false;
        while c.m < c.msgs {
            if self.cur.is_none() {
                let delivered = &self.shared.delivered[self.stream as usize];
                if delivered.load(Ordering::Acquire) + WINDOW <= c.m {
                    return Ok(status(progressed));
                }
                o.probe.msg_begin(self.stream, c.m);
                self.cur = Some(SendOne::open(&c.ctx, c.n, self.dst, 0, &mut o.probe)?);
            }
            let cur = self.cur.as_mut().expect("opened above");
            let (moved, done) = cur.step(c.payload.tx(self.stream, c.m, c.n), &mut o.probe)?;
            progressed |= moved;
            if !done {
                return Ok(status(progressed));
            }
            self.cur = None; // close: the port is free for the next message
            o.probe.msg_end();
            c.m += 1;
            progressed = true;
        }
        Ok(TaskStatus::Done)
    }
}

struct PairRx {
    c: Common,
    shared: Arc<Shared>,
    src: usize,
    stream: u32,
    /// The open message and when its `open` began.
    cur: Option<(RecvOne, u64)>,
    buf: Vec<i32>,
}

impl Body for PairRx {
    fn step(&mut self, o: &mut Outcome) -> Result<TaskStatus, SmiError> {
        let c = &mut self.c;
        let mut progressed = false;
        while c.m < c.msgs {
            if self.cur.is_none() {
                let t = now_ns();
                o.probe.msg_begin(self.stream, c.m);
                let rx = RecvOne::open(&c.ctx, c.n, self.src, 0, &mut o.probe)?;
                self.cur = Some((rx, t));
            }
            let (cur, opened) = self.cur.as_mut().expect("opened above");
            let (moved, done) = cur.step(&mut self.buf, &mut o.probe)?;
            progressed |= moved;
            if !done {
                return Ok(status(progressed));
            }
            if self.buf == c.payload.expect(self.stream, c.m, c.n) {
                o.ok += 1;
                o.elems += c.n as u64;
                o.lat_ns.push(now_ns() - *opened);
            }
            self.cur = None;
            o.probe.msg_end();
            c.m += 1;
            self.shared.delivered[self.stream as usize].store(c.m, Ordering::Release);
            progressed = true;
        }
        Ok(TaskStatus::Done)
    }
}

enum Leg {
    Between,
    Sending(SendOne),
    Receiving(RecvOne),
}

/// The initiator sends on port 0 and awaits the echo on port 1; the
/// responder mirrors it. Both verify what they receive; the round-trip
/// sample is the initiator's.
struct PingPong {
    c: Common,
    peer: usize,
    initiator: bool,
    leg: Leg,
    started_ns: u64,
    buf: Vec<i32>,
}

impl Body for PingPong {
    fn step(&mut self, o: &mut Outcome) -> Result<TaskStatus, SmiError> {
        let PingPong {
            c,
            peer,
            initiator,
            leg,
            started_ns,
            buf,
        } = self;
        let (peer, initiator) = (*peer, *initiator);
        let mut progressed = false;
        while c.m < c.msgs {
            match leg {
                Leg::Between => {
                    *started_ns = now_ns();
                    o.probe.msg_begin(0, c.m);
                    *leg = if initiator {
                        Leg::Sending(SendOne::open(&c.ctx, c.n, peer, 0, &mut o.probe)?)
                    } else {
                        Leg::Receiving(RecvOne::open(&c.ctx, c.n, peer, 0, &mut o.probe)?)
                    };
                }
                Leg::Sending(tx) => {
                    let data = if initiator {
                        c.payload.tx(0, c.m, c.n)
                    } else {
                        &buf[..]
                    };
                    let (moved, done) = tx.step(data, &mut o.probe)?;
                    progressed |= moved;
                    if !done {
                        return Ok(status(progressed));
                    }
                    progressed = true;
                    if initiator {
                        *leg = Leg::Receiving(RecvOne::open(&c.ctx, c.n, peer, 1, &mut o.probe)?);
                    } else {
                        *leg = Leg::Between;
                        o.probe.msg_end();
                        c.m += 1;
                    }
                }
                Leg::Receiving(rx) => {
                    let (moved, done) = rx.step(buf, &mut o.probe)?;
                    progressed |= moved;
                    if !done {
                        return Ok(status(progressed));
                    }
                    progressed = true;
                    let good = buf[..] == *c.payload.expect(0, c.m, c.n);
                    if good {
                        o.ok += 1;
                        o.elems += c.n as u64;
                    }
                    if initiator {
                        if good {
                            o.lat_ns.push(now_ns() - *started_ns);
                        }
                        *leg = Leg::Between;
                        o.probe.msg_end();
                        c.m += 1;
                    } else {
                        *leg = Leg::Sending(SendOne::open(&c.ctx, c.n, peer, 1, &mut o.probe)?);
                    }
                }
            }
        }
        Ok(TaskStatus::Done)
    }
}

/// An open collective message: the channel, elements moved, when its open
/// began, and whether it was already seen to leave `Opening`.
struct OpenColl<C> {
    ch: C,
    off: usize,
    opened_ns: u64,
    streaming: bool,
}

struct BcastMember {
    c: Common,
    world: Communicator,
    cur: Option<OpenColl<Bcast>>,
    buf: Vec<i32>,
}

impl Body for BcastMember {
    fn step(&mut self, o: &mut Outcome) -> Result<TaskStatus, SmiError> {
        let c = &mut self.c;
        let root = o.rank == 0;
        let mut progressed = false;
        while c.m < c.msgs {
            if self.cur.is_none() {
                let opened_ns = now_ns();
                o.probe.msg_begin(0, c.m);
                let ch = Bcast::open(&c.ctx, &self.world, c.n, &mut o.probe)?;
                if root {
                    self.buf.copy_from_slice(c.payload.tx(0, c.m, c.n));
                }
                self.cur = Some(OpenColl {
                    ch,
                    off: 0,
                    opened_ns,
                    streaming: false,
                });
            }
            let cur = self.cur.as_mut().expect("opened above");
            if cur.off < c.n {
                let k = cur.ch.try_bcast(&mut self.buf[cur.off..], &mut o.probe)?;
                cur.off += k;
                progressed |= k > 0;
            }
            if !cur.streaming && cur.ch.streaming() {
                cur.streaming = true;
                o.probe.interval(Kind::Opening, cur.opened_ns);
            }
            if cur.off < c.n || !cur.ch.poll_done(&mut o.probe)? {
                return Ok(status(progressed));
            }
            if !root && self.buf == c.payload.expect(0, c.m, c.n) {
                o.ok += 1;
                o.elems += c.n as u64;
                o.lat_ns.push(now_ns() - cur.opened_ns);
            }
            self.cur = None;
            o.probe.msg_end();
            c.m += 1;
            progressed = true;
        }
        Ok(TaskStatus::Done)
    }
}

/// One reduction of `msgs × n` elements, fed and verified chunk by chunk.
struct ReduceMember {
    c: Common,
    world: Communicator,
    ranks: usize,
    cur: Option<OpenColl<Reduce>>,
    /// Whether `contrib` holds chunk `c.m`.
    loaded: bool,
    contrib: Vec<i32>,
    out: Vec<i32>,
    /// When the previous chunk completed (the open, for the first).
    prev_ns: u64,
}

impl Body for ReduceMember {
    fn step(&mut self, o: &mut Outcome) -> Result<TaskStatus, SmiError> {
        let c = &mut self.c;
        let root = o.rank == 0;
        if self.cur.is_none() {
            let opened_ns = now_ns();
            self.prev_ns = opened_ns;
            let ch = Reduce::open(&c.ctx, &self.world, c.n * c.msgs as usize, &mut o.probe)?;
            self.cur = Some(OpenColl {
                ch,
                off: 0,
                opened_ns,
                streaming: false,
            });
        }
        let cur = self.cur.as_mut().expect("opened above");
        let mut progressed = false;
        while c.m < c.msgs {
            if !self.loaded {
                o.probe.msg_begin(0, c.m);
                let rank = o.rank as i32;
                for (dst, src) in self.contrib.iter_mut().zip(c.payload.tx(0, c.m, c.n)) {
                    *dst = src.wrapping_add(rank);
                }
                self.loaded = true;
            }
            let k = cur.ch.try_reduce(
                &self.contrib[cur.off..],
                &mut self.out[cur.off..],
                &mut o.probe,
            )?;
            cur.off += k;
            progressed |= k > 0;
            if !cur.streaming && cur.ch.streaming() {
                cur.streaming = true;
                o.probe.interval(Kind::Opening, cur.opened_ns);
            }
            if cur.off < c.n {
                return Ok(status(progressed));
            }
            if root {
                // Every rank r contributed expect[i] + r.
                let (n, tri) = (
                    self.ranks as i32,
                    (self.ranks * (self.ranks - 1) / 2) as i32,
                );
                let good = self
                    .out
                    .iter()
                    .zip(c.payload.expect(0, c.m, c.n))
                    .all(|(&got, &e)| got == e.wrapping_mul(n).wrapping_add(tri));
                if good {
                    let now = now_ns();
                    o.ok += 1;
                    o.elems += c.n as u64;
                    o.lat_ns.push(now - self.prev_ns);
                    self.prev_ns = now;
                }
            }
            o.probe.msg_end();
            cur.off = 0;
            self.loaded = false;
            c.m += 1;
            progressed = true;
        }
        if cur.ch.poll_done(&mut o.probe)? {
            self.cur = None;
            return Ok(TaskStatus::Done);
        }
        Ok(status(progressed))
    }
}

/// One repetition's measurements.
pub struct Rep {
    /// A launch failure (the whole repetition failed) or rank errors.
    pub errors: Vec<String>,
    pub setup_s: f64,
    pub stream_s: f64,
    pub teardown_s: f64,
    pub run_s: f64,
    /// Peak resident set of the process during this repetition.
    pub peak_rss_mib: f64,
    pub counts: Counts,
    /// The tasks' outcomes, their message-time samples moved to `lat`.
    pub outcomes: Vec<Outcome>,
    /// Median and 99th percentile of this repetition's message-time
    /// samples, and how many there were.
    pub lat_p50_ns: u64,
    pub lat_p99_ns: u64,
    pub lat_n: usize,
    /// The samples, ascending — kept only on request (`keep_samples`): held
    /// over a whole run they would grow into the next repetitions'
    /// `peak_rss_mib`.
    pub lat: Vec<u64>,
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

impl Rep {
    pub fn ok(&self) -> u64 {
        self.outcomes.iter().map(|o| o.ok).sum()
    }

    pub fn elems(&self) -> u64 {
        self.outcomes.iter().map(|o| o.elems).sum()
    }

    pub fn throughput_melem_s(&self) -> f64 {
        if self.stream_s > 0.0 {
            self.elems() as f64 / self.stream_s / 1e6
        } else {
            0.0
        }
    }
}

/// Launch `fabric` once and stream `msgs` messages per stream of `spec`
/// over it (`msgs == 0`: launch only — every task returns `Done` at once).
/// `fabric` is `spec.fabric` except where a per-layer metric compares
/// against the same workload on another fabric.
pub fn run_rep(
    spec: &Spec,
    fabric: Fabric,
    msgs: u32,
    payload: &Arc<Payload>,
    trace: Option<TraceCfg>,
    keep_samples: bool,
) -> Rep {
    let ranks = fabric.ranks;
    let shared = Arc::new(Shared {
        ranks,
        entered: AtomicUsize::new(0),
        last_entered_ns: AtomicU64::new(0),
        last_done_ns: AtomicU64::new(0),
        delivered: (0..ranks / 2).map(|_| AtomicU32::new(0)).collect(),
        outcomes: Mutex::new(Vec::with_capacity(ranks)),
    });
    // A launch-only repetition wires the same ports; only the tasks idle.
    let roles: Vec<Role> = (0..ranks).map(|r| spec.role(r)).collect();
    let ports: Vec<Vec<PortOp>> = roles.iter().map(|r| r.ports()).collect();
    let n = spec.elems;
    let factories: Vec<TaskFactory> = roles
        .iter()
        .enumerate()
        .map(|(rank, &role)| {
            let role = if msgs == 0 { Role::Idle } else { role };
            let shared = shared.clone();
            let payload = payload.clone();
            Box::new(move |ctx: SmiCtx| {
                shared
                    .last_entered_ns
                    .fetch_max(now_ns(), Ordering::Relaxed);
                shared.entered.fetch_add(1, Ordering::Release);
                let samples = if matches!(role, Role::Idle | Role::PairTx { .. }) {
                    0
                } else {
                    msgs as usize
                };
                // An idle rank records its task span and nothing else.
                let trace = trace.map(|t| TraceCfg {
                    cap: if matches!(role, Role::Idle) { 1 } else { t.cap },
                    ..t
                });
                let outcome = Some(Outcome {
                    rank,
                    begin_ns: 0,
                    end_ns: 0,
                    ok: 0,
                    elems: 0,
                    lat_ns: Vec::with_capacity(samples),
                    probe: Probe::new(trace),
                });
                let c = Common {
                    ctx,
                    payload,
                    msgs,
                    n,
                    m: 0,
                };
                let body: Box<dyn Body> = match role {
                    Role::Idle => Box::new(Idle),
                    Role::PairTx { dst, stream } => Box::new(PairTx {
                        c,
                        shared: shared.clone(),
                        dst,
                        stream,
                        cur: None,
                    }),
                    Role::PairRx { src, stream } => Box::new(PairRx {
                        c,
                        shared: shared.clone(),
                        src,
                        stream,
                        cur: None,
                        buf: vec![0; n],
                    }),
                    Role::PingPong { peer, initiator } => Box::new(PingPong {
                        c,
                        peer,
                        initiator,
                        leg: Leg::Between,
                        started_ns: 0,
                        buf: vec![0; n],
                    }),
                    Role::Bcast => Box::new(BcastMember {
                        world: api::world(&c.ctx),
                        c,
                        cur: None,
                        buf: vec![0; n],
                    }),
                    Role::Reduce => Box::new(ReduceMember {
                        world: api::world(&c.ctx),
                        c,
                        ranks,
                        cur: None,
                        loaded: false,
                        contrib: vec![0; n],
                        out: vec![0; n],
                        prev_ns: 0,
                    }),
                };
                Ok(Box::new(Driven {
                    body,
                    shared,
                    outcome,
                    started: false,
                }) as Box<dyn RankTask>)
            }) as TaskFactory
        })
        .collect();

    // Restart the kernel's peak-RSS watermark, so the peak read below is this
    // repetition's own. Where /proc forbids it the watermark is the
    // process's so far, which is still what a user of the process sees.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let t0 = now_ns();
    let launched = api::launch(&fabric, &ports, factories);
    let t_end = now_ns();
    let peak_rss_mib = peak_rss_mib();
    let entered = shared.last_entered_ns.load(Ordering::Relaxed).max(t0);
    let done = shared.last_done_ns.load(Ordering::Relaxed).max(entered);
    let secs = |a: u64, b: u64| b.saturating_sub(a) as f64 / 1e9;
    let mut outcomes = std::mem::take(
        &mut *shared
            .outcomes
            .lock()
            .expect("no task panics holding the outcome lock"),
    );
    outcomes.sort_by_key(|o| o.rank);
    let mut lat: Vec<u64> = outcomes
        .iter_mut()
        .flat_map(|o| std::mem::take(&mut o.lat_ns))
        .collect();
    lat.sort_unstable();
    let (counts, errors) = match launched {
        Ok(counts) => {
            let errors = counts
                .rank_errors
                .iter()
                .map(|(r, e)| format!("rank {r}: {e}"))
                .collect();
            (counts, errors)
        }
        Err(e) => (Counts::default(), vec![format!("launch: {e}")]),
    };
    Rep {
        errors,
        setup_s: secs(t0, entered),
        stream_s: secs(entered, done),
        teardown_s: secs(done, t_end),
        run_s: secs(t0, t_end),
        peak_rss_mib,
        counts,
        outcomes,
        lat_p50_ns: percentile(&lat, 0.5),
        lat_p99_ns: percentile(&lat, 0.99),
        lat_n: lat.len(),
        lat: if keep_samples { lat } else { Vec::new() },
    }
}
