//! Back-to-back collectives on one port: a member that finished message
//! `k` opens `k + 1` at once, while slower members (or the root) are still
//! in `k`. Under reduce's implicit first credit window a leaf then streams
//! `k + 1` data into a combiner still folding `k`, and a scatter member
//! announces readiness for `k + 1` to a root still waiting on another
//! member's announcement for `k`. Whatever arrives early must wait for the
//! next open on the port, not be folded in or dropped.
//!
//! Every collective, both schemes, `bus(8)` and `bus(32)`, three counts
//! (one element, one burst-sized message, several reduce credit windows),
//! `MSGS` messages each on port 0, on the task plane with one worker, plus
//! blocking reduces on the thread plane; every message carries its own
//! values, so a contribution folded into the wrong message or a dropped
//! announcement cannot pass unseen.
//!
//! Point-to-point channels reopen back to back too: a credit-protocol
//! receiver must not grant credit its sender never claims, or the grants
//! pile up in the sender port's grant FIFO across reopens and hand later
//! messages credit their receivers never gave. A completed sender checks
//! (in debug builds) that it claimed every grant.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use smi::prelude::*;

const MSGS: usize = 10;
const COUNTS: [usize; 3] = [1, 64, 5000];

#[derive(Clone, Copy, Debug)]
enum Kind {
    Bcast,
    Scatter,
    Gather,
    Reduce,
}

/// Element `i` of world rank `r`'s data in message `m` (small enough that
/// a 32-rank sum stays in range).
fn value(m: usize, r: usize, i: usize) -> i32 {
    (m * 1_000_000 + r * 10_000 + i) as i32
}

enum Chan {
    Bcast(BcastChannel<i32>),
    Scatter(ScatterChannel<i32>),
    Gather(GatherChannel<i32>),
    Reduce(ReduceChannel<i32>),
}

/// What one rank received per message.
type Received = Vec<Vec<i32>>;

struct Member {
    ctx: SmiCtx,
    kind: Kind,
    count: usize,
    root: usize,
    m: usize,
    /// `None` only between dropping one message's channel and opening the
    /// next: a port hosts one channel at a time.
    chan: Option<Chan>,
    /// What this rank feeds in message `m`.
    send: Vec<i32>,
    /// What this rank receives in message `m`.
    recv: Vec<i32>,
    sent: usize,
    got: usize,
    received: Received,
    out: Arc<Mutex<Vec<Received>>>,
}

impl Member {
    fn open(ctx: &SmiCtx, kind: Kind, count: usize, root: usize) -> Result<Chan, SmiError> {
        let (world, n) = (ctx.world(), count as u64);
        Ok(match kind {
            Kind::Bcast => Chan::Bcast(ctx.open_bcast_channel_poll(n, 0, root, &world)?),
            Kind::Scatter => Chan::Scatter(ctx.open_scatter_channel_poll(n, 0, root, &world)?),
            Kind::Gather => Chan::Gather(ctx.open_gather_channel_poll(n, 0, root, &world)?),
            Kind::Reduce => Chan::Reduce(ctx.open_reduce_channel_poll(n, 0, root, &world)?),
        })
    }

    /// `(send, recv)` buffers of message `m` at this rank.
    fn buffers(&self, m: usize) -> (Vec<i32>, Vec<i32>) {
        let (rank, size, count) = (self.ctx.rank(), self.ctx.num_ranks(), self.count);
        let own: Vec<i32> = (0..count).map(|i| value(m, rank, i)).collect();
        let is_root = rank == self.root;
        match self.kind {
            Kind::Bcast if is_root => (Vec::new(), own),
            Kind::Bcast => (Vec::new(), vec![0; count]),
            Kind::Scatter => {
                let all = (0..size).flat_map(|r| (0..count).map(move |i| value(m, r, i)));
                let send = if is_root { all.collect() } else { Vec::new() };
                (send, vec![0; count])
            }
            Kind::Gather => (own, vec![0; if is_root { count * size } else { 0 }]),
            Kind::Reduce => (own, vec![0; count]),
        }
    }

    /// One non-blocking step of message `m`; `(moved, finished)`.
    fn step(&mut self) -> Result<(usize, bool), SmiError> {
        let (sent, got) = (self.sent, self.got);
        let chan = self.chan.as_mut().expect("open between messages");
        match chan {
            Chan::Bcast(ch) => self.got += ch.try_bcast_slice(&mut self.recv[got..])?,
            Chan::Scatter(ch) => {
                if !self.send.is_empty() {
                    self.sent += ch.try_push_slice(&self.send[sent..])?;
                }
                self.got += ch.try_pop_slice(&mut self.recv[got..])?;
            }
            Chan::Gather(ch) => {
                self.sent += ch.try_push_slice(&self.send[sent..])?;
                if !self.recv.is_empty() {
                    self.got += ch.try_pop_slice(&mut self.recv[got..])?;
                }
            }
            Chan::Reduce(ch) => {
                let n = ch.try_reduce_slice(&self.send[got..], &mut self.recv[got..])?;
                self.got += n;
                self.sent += n;
            }
        }
        let state = match chan {
            Chan::Bcast(ch) => ch.poll()?,
            Chan::Scatter(ch) => ch.poll()?,
            Chan::Gather(ch) => ch.poll()?,
            Chan::Reduce(ch) => ch.poll()?,
        };
        let moved = self.sent + self.got - sent - got;
        let fed = self.sent == self.send.len() && self.got == self.recv.len();
        Ok((moved, fed && state == CollectiveState::Done))
    }
}

impl RankTask for Member {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        let (moved, finished) = self.step()?;
        if !finished {
            return Ok(if moved > 0 {
                TaskStatus::Progress
            } else {
                TaskStatus::Pending
            });
        }
        self.received.push(std::mem::take(&mut self.recv));
        self.m += 1;
        if self.m == MSGS {
            self.out.lock().unwrap()[self.ctx.rank()] = std::mem::take(&mut self.received);
            return Ok(TaskStatus::Done);
        }
        // Dropping the finished channel sends its endpoint home, and the
        // next message opens on the same port at once.
        self.chan = None;
        self.chan = Some(Member::open(&self.ctx, self.kind, self.count, self.root)?);
        (self.send, self.recv) = self.buffers(self.m);
        (self.sent, self.got) = (0, 0);
        Ok(TaskStatus::Progress)
    }
}

/// Run `MSGS` back-to-back `kind` collectives from rank 0 on `bus(ranks)`
/// and return what every rank received per message.
fn run(kind: Kind, scheme: CollectiveScheme, ranks: usize, count: usize) -> Vec<Received> {
    let meta = ProgramMeta::new().with(match kind {
        Kind::Bcast => OpSpec::bcast(0, Datatype::Int),
        Kind::Scatter => OpSpec::scatter(0, Datatype::Int),
        Kind::Gather => OpSpec::gather(0, Datatype::Int),
        Kind::Reduce => OpSpec::reduce(0, Datatype::Int, ReduceOp::Add),
    });
    let out = Arc::new(Mutex::new(vec![Received::new(); ranks]));
    let shared = out.clone();
    let factory = move |ctx: SmiCtx| {
        let chan = Member::open(&ctx, kind, count, 0)?;
        let mut member = Member {
            ctx,
            kind,
            count,
            root: 0,
            m: 0,
            chan: Some(chan),
            send: Vec::new(),
            recv: Vec::new(),
            sent: 0,
            got: 0,
            received: Vec::new(),
            out: shared.clone(),
        };
        (member.send, member.recv) = member.buffers(0);
        Ok(Box::new(member) as Box<dyn RankTask>)
    };
    let params = RuntimeParams {
        collective_scheme: scheme,
        transport_workers: 1,
        // A stalled message fails in seconds, not the default ten.
        blocking_timeout: Duration::from_secs(3),
        ..RuntimeParams::default()
    };
    let at = format!("{kind:?} {scheme:?} bus({ranks}) count {count}");
    let report = run_spmd_tasks(&Topology::bus(ranks), meta, factory, params).unwrap();
    for (r, res) in report.results.iter().enumerate() {
        assert!(res.is_ok(), "{at}: rank {r}: {res:?}");
    }
    let mut received = out.lock().unwrap();
    std::mem::take(&mut *received)
}

/// What rank `r` must have received in message `m`.
fn expected(kind: Kind, ranks: usize, count: usize, m: usize, r: usize) -> Vec<i32> {
    let block = |r| (0..count).map(move |i| value(m, r, i));
    match kind {
        Kind::Bcast => block(0).collect(),
        Kind::Scatter => block(r).collect(),
        Kind::Gather if r == 0 => (0..ranks).flat_map(block).collect(),
        Kind::Gather => Vec::new(),
        Kind::Reduce if r == 0 => {
            let sum = |i| (0..ranks).map(|r| value(m, r, i)).sum();
            (0..count).map(sum).collect()
        }
        // A non-root's out slice of a reduce is never written.
        Kind::Reduce => vec![0; count],
    }
}

fn check(kind: Kind) {
    for scheme in [CollectiveScheme::Linear, CollectiveScheme::Tree] {
        for ranks in [8, 32] {
            for count in COUNTS {
                let at = format!("{kind:?} {scheme:?} bus({ranks}) count {count}");
                let got = run(kind, scheme, ranks, count);
                for (r, msgs) in got.iter().enumerate() {
                    assert_eq!(msgs.len(), MSGS, "{at}: rank {r}");
                    for (m, recv) in msgs.iter().enumerate() {
                        let want = expected(kind, ranks, count, m, r);
                        assert!(*recv == want, "{at}: rank {r}, message {m} differs");
                    }
                }
            }
        }
    }
}

#[test]
fn back_to_back_bcasts_on_one_port() {
    check(Kind::Bcast);
}

#[test]
fn back_to_back_scatters_on_one_port() {
    check(Kind::Scatter);
}

#[test]
fn back_to_back_gathers_on_one_port() {
    check(Kind::Gather);
}

#[test]
fn back_to_back_reduces_on_one_port() {
    check(Kind::Reduce);
}

/// The thread plane: two ranks, 64 elements, `MSGS` blocking
/// `reduce_slice` calls on one port — how the reduce bug first showed.
#[test]
fn back_to_back_blocking_reduces_on_one_port() {
    const COUNT: usize = 64;
    let program = |ctx: SmiCtx| {
        let world = ctx.world();
        let reduce = |m: usize| {
            let snd: Vec<i32> = (0..COUNT).map(|i| value(m, ctx.rank(), i)).collect();
            let mut out = vec![0; COUNT];
            let mut ch = ctx.open_reduce_channel(COUNT as u64, 0, 0, &world)?;
            ch.reduce_slice(&snd, &mut out).map(|()| out)
        };
        (0..MSGS).map(reduce).collect::<Result<Vec<_>, SmiError>>()
    };
    let meta = ProgramMeta::new().with(OpSpec::reduce(0, Datatype::Int, ReduceOp::Add));
    let params = RuntimeParams {
        blocking_timeout: Duration::from_secs(3),
        ..RuntimeParams::default()
    };
    let results = run_spmd(&Topology::bus(2), meta, program, params)
        .unwrap()
        .results;
    let root = results[0].as_ref().expect("rank 0");
    for (m, got) in root.iter().enumerate() {
        assert_eq!(*got, expected(Kind::Reduce, 2, COUNT, m, 0), "message {m}");
    }
    assert!(results[1].is_ok(), "rank 1: {:?}", results[1]);
}

/// Blocking reduces whose root moves every message, on one port, `bus(8)`,
/// both schemes: a member that finished message `m` streams `m + 1` under
/// its implicit first window to its parent there, which may still run `m`
/// with no such child — as a leaf, or as a combiner of other children.
/// That contribution must wait for the parent's next open.
#[test]
fn back_to_back_blocking_reduces_with_rotating_roots() {
    const COUNT: usize = 64;
    const RANKS: usize = 8;
    const ROOTS: [usize; MSGS] = [0, 7, 4, 1, 6, 2, 5, 3, 0, 7];
    for scheme in [CollectiveScheme::Linear, CollectiveScheme::Tree] {
        let program = |ctx: SmiCtx| {
            let world = ctx.world();
            let reduce = |m: usize| {
                let snd: Vec<i32> = (0..COUNT).map(|i| value(m, ctx.rank(), i)).collect();
                let mut out = vec![0; COUNT];
                let mut ch = ctx.open_reduce_channel(COUNT as u64, 0, ROOTS[m], &world)?;
                ch.reduce_slice(&snd, &mut out).map(|()| out)
            };
            (0..MSGS).map(reduce).collect::<Result<Vec<_>, SmiError>>()
        };
        let meta = ProgramMeta::new().with(OpSpec::reduce(0, Datatype::Int, ReduceOp::Add));
        let params = RuntimeParams {
            collective_scheme: scheme,
            blocking_timeout: Duration::from_secs(3),
            ..RuntimeParams::default()
        };
        let results = run_spmd(&Topology::bus(RANKS), meta, program, params)
            .unwrap()
            .results;
        for (r, res) in results.iter().enumerate() {
            let got = res
                .as_ref()
                .unwrap_or_else(|e| panic!("{scheme:?}: rank {r}: {e:?}"));
            for (m, out) in got.iter().enumerate() {
                let sum = |i| (0..RANKS).map(|r| value(m, r, i)).sum();
                let want: Vec<i32> = if r == ROOTS[m] {
                    (0..COUNT).map(sum).collect()
                } else {
                    vec![0; COUNT]
                };
                assert_eq!(*out, want, "{scheme:?}: rank {r}, message {m}");
            }
        }
    }
}

/// Messages per direction in the point-to-point runs: enough reopens that
/// grants a sender never claims would pile up in its port's grant FIFO
/// (once 16 would have filled the credit delivery and stalled its CKR).
const P2P_MSGS: usize = 20;

/// Back-to-back point-to-point channels in both directions at once: rank 0
/// sends `P2P_MSGS` messages to rank 1 on port 0 while rank 1 sends as many
/// to rank 0 on port 1, a fresh channel pair per message, blocking calls on
/// the thread plane. Each rank alternates one packet's worth of push with
/// one of pop, so neither direction relies on buffering. Returns what each
/// rank received per message.
fn p2p_run(protocol: Protocol, count: usize, plan: Option<&ProcessPlan>) -> Vec<Vec<Vec<i32>>> {
    let program = move |ctx: SmiCtx| {
        let (me, peer) = (ctx.rank(), 1 - ctx.rank());
        let n = count as u64;
        let mut got = Vec::new();
        for m in 0..P2P_MSGS {
            let snd: Vec<i32> = (0..count).map(|i| value(m, me, i)).collect();
            let mut rcv = vec![0; count];
            let mut tx = ctx.open_send_channel_with::<i32>(n, peer, me, protocol)?;
            let mut rx = ctx.open_recv_channel_with::<i32>(n, peer, peer, protocol)?;
            for (s, r) in snd.chunks(7).zip(rcv.chunks_mut(7)) {
                tx.push_slice(s)?;
                rx.pop_slice(r)?;
            }
            got.push(rcv);
        }
        Ok::<_, SmiError>(got)
    };
    let meta = ProgramMeta::new()
        .with(OpSpec::send(0, Datatype::Int))
        .with(OpSpec::recv(0, Datatype::Int))
        .with(OpSpec::send(1, Datatype::Int))
        .with(OpSpec::recv(1, Datatype::Int));
    let params = RuntimeParams {
        blocking_timeout: Duration::from_secs(3),
        ..RuntimeParams::default()
    };
    let topo = Topology::bus(2);
    let report = match plan {
        None => run_spmd(&topo, meta, program, params),
        Some(plan) => run_split_spmd(plan, meta, program, params),
    };
    let at = format!("{protocol:?} count {count} {plan:?}");
    let results = report.unwrap().results;
    let unwrap = |(r, res): (usize, Result<_, SmiError>)| match res {
        Ok(got) => got,
        Err(e) => panic!("{at}: rank {r}: {e:?}"),
    };
    results.into_iter().enumerate().map(unwrap).collect()
}

#[test]
fn back_to_back_p2p_channels_in_both_directions() {
    let uds = ProcessPlan::split(&Topology::bus(2), TransportBackend::Uds, 2);
    for plan in [None, Some(&uds)] {
        // Windows at and above the count, and below it (count 64).
        for count in [1, 64] {
            let protocols = [
                Protocol::Eager,
                Protocol::Credit { window: 14 },
                Protocol::Credit {
                    window: count as u64,
                },
            ];
            for protocol in protocols {
                let got = p2p_run(protocol, count, plan);
                for (r, msgs) in got.iter().enumerate() {
                    for (m, rcv) in msgs.iter().enumerate() {
                        let want: Vec<i32> = (0..count).map(|i| value(m, 1 - r, i)).collect();
                        assert!(
                            *rcv == want,
                            "{protocol:?} count {count}: rank {r}, message {m}"
                        );
                    }
                }
            }
        }
    }
}
