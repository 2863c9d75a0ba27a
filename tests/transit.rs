//! One kernel crossing per transit hop, end to end: every rank streams to
//! every other at once, so packets transit ranks in both directions and
//! arrive at CKRs that do not own their port (ports are dealt to CK pairs
//! round-robin). Every stream must arrive bit-exact in memory and over
//! sockets, and the forward *counts* — which a noisy host cannot blur — must
//! show that a rank a packet enters costs one CKR forward, and that a packet
//! costs one CKS forward in all, at its origin: every endpoint writes the
//! CKS of its next hop, and a transit CKR writes the link of its next hop.
//! A link so has up to `np + 1` producers (its CKS and every CKR of the
//! rank); tight FIFOs make them refuse in turn, and every stream must still
//! arrive in order.

use std::sync::{Arc, Mutex};

use smi::prelude::*;
use smi_topology::RoutingPlan;

const EPP: usize = Datatype::Int.elems_per_packet();

/// Elements per stream: several packets, the last one partial.
const COUNT: usize = 3 * EPP + 5;

fn value(src: usize, dst: usize, i: usize) -> i32 {
    (src * 1_000_003 + dst * 10_007 + i) as i32
}

/// The port of stream `src → dst` on `n` ranks: distinct among a rank's
/// sends and among its receives, so every rank declares ports `1..n` both
/// ways.
fn port(src: usize, dst: usize, n: usize) -> usize {
    (dst + n - src) % n
}

struct Outbound {
    ch: SendChannel<i32>,
    data: Vec<i32>,
    off: usize,
}

struct Inbound {
    src: usize,
    ch: RecvChannel<i32>,
    buf: Vec<i32>,
    filled: usize,
}

/// `received[dst]` = every `(src, stream)` rank `dst` popped.
type Received = Arc<Mutex<Vec<Vec<(usize, Vec<i32>)>>>>;

/// One rank's half of the all-pairs exchange, on the poll-mode cores.
struct AllPairs {
    rank: usize,
    sends: Vec<Outbound>,
    recvs: Vec<Inbound>,
    got: Vec<(usize, Vec<i32>)>,
    out: Received,
}

impl RankTask for AllPairs {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        let mut moved = 0;
        let mut i = 0;
        while i < self.sends.len() {
            let s = &mut self.sends[i];
            let n = s.ch.try_push_slice(&s.data[s.off..])?;
            s.off += n;
            moved += n;
            if s.off == s.data.len() && s.ch.try_flush()? && s.ch.fully_sent() {
                self.sends.swap_remove(i);
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.recvs.len() {
            let r = &mut self.recvs[i];
            let n = r.ch.try_pop_slice(&mut r.buf[r.filled..])?;
            r.filled += n;
            moved += n;
            if r.filled == r.buf.len() {
                let r = self.recvs.swap_remove(i);
                self.got.push((r.src, r.buf));
            } else {
                i += 1;
            }
        }
        if self.sends.is_empty() && self.recvs.is_empty() {
            self.out.lock().unwrap()[self.rank] = std::mem::take(&mut self.got);
            return Ok(TaskStatus::Done);
        }
        Ok(if moved > 0 {
            TaskStatus::Progress
        } else {
            TaskStatus::Pending
        })
    }
}

/// All-pairs p2p under `protocol` on `topo`, in memory (`plan` = `None`)
/// or over `plan`; checks every stream and returns the transport counters
/// and the executor's polls.
fn all_pairs(
    topo: &Topology,
    plan: Option<&ProcessPlan>,
    params: RuntimeParams,
    protocol: Protocol,
) -> ((u64, u64, u64), u64) {
    let n = topo.num_ranks();
    let meta = (1..n).fold(ProgramMeta::new(), |m, p| {
        m.with(OpSpec::send(p, Datatype::Int))
            .with(OpSpec::recv(p, Datatype::Int))
    });
    let out: Received = Arc::new(Mutex::new(vec![Vec::new(); n]));
    let factories: Vec<TaskFactory> = (0..n)
        .map(|rank| {
            let out = out.clone();
            Box::new(move |ctx: SmiCtx| {
                let mut task = AllPairs {
                    rank,
                    sends: Vec::new(),
                    recvs: Vec::new(),
                    got: Vec::new(),
                    out,
                };
                for peer in (0..n).filter(|&p| p != rank) {
                    let (count, out, inn) =
                        (COUNT as u64, port(rank, peer, n), port(peer, rank, n));
                    task.sends.push(Outbound {
                        ch: ctx.open_send_channel_with(count, peer, out, protocol)?,
                        data: (0..COUNT).map(|i| value(rank, peer, i)).collect(),
                        off: 0,
                    });
                    task.recvs.push(Inbound {
                        src: peer,
                        ch: ctx.open_recv_channel_with(count, peer, inn, protocol)?,
                        buf: vec![0; COUNT],
                        filled: 0,
                    });
                }
                Ok(Box::new(task) as Box<dyn RankTask>)
            }) as TaskFactory
        })
        .collect();
    let metas = vec![meta; n];
    let report = match plan {
        Some(plan) => run_split_mpmd_tasks(plan, metas, factories, params),
        None => run_mpmd_tasks(topo, metas, factories, params),
    }
    .unwrap();
    for (r, res) in report.results.iter().enumerate() {
        assert!(res.is_ok(), "rank {r}: {res:?}");
    }
    assert_eq!(report.reconnects_healed, 0, "fault-free run healed");
    assert_eq!(report.wire_stats.stream_faults, 0, "fault-free run faulted");
    let mut received = std::mem::take(&mut *out.lock().unwrap());
    for (dst, streams) in received.iter_mut().enumerate() {
        streams.sort_by_key(|(src, _)| *src);
        let srcs: Vec<usize> = streams.iter().map(|(src, _)| *src).collect();
        assert_eq!(srcs, Vec::from_iter((0..n).filter(|&s| s != dst)));
        for (src, stream) in streams.iter() {
            let want: Vec<i32> = (0..COUNT).map(|i| value(*src, dst, i)).collect();
            assert!(*stream == want, "stream {src} → {dst} corrupted");
        }
    }
    let polls = report.worker_stats.iter().map(|w| w.polls).sum();
    (report.transport, polls)
}

/// Runs [`all_pairs`] on `topo` for every `(processes, workers)` placement
/// (one process: in memory; more: split over UDS) and checks the forward
/// counts: one CKR forward per rank a packet enters, one CKS forward per
/// packet, at its origin.
fn one_crossing_per_rank(
    name: &str,
    topo: &Topology,
    base: RuntimeParams,
    placements: &[(usize, usize)],
) {
    let n = topo.num_ranks();
    let packets = COUNT.div_ceil(EPP) as u64;
    let routes = RoutingPlan::compute(topo).unwrap();
    let pairs = (0..n).flat_map(|s| (0..n).filter(move |&d| d != s).map(move |d| (s, d)));
    let hops: u64 = pairs.map(|(s, d)| routes.hops(s, d) as u64).sum();
    for &(nproc, workers) in placements {
        let plan = (nproc > 1).then(|| ProcessPlan::split(topo, TransportBackend::Uds, nproc));
        let at = match nproc {
            1 => format!("{name}, in memory on {workers} worker(s)"),
            _ => format!("{name}, uds × {nproc}"),
        };
        let params = RuntimeParams {
            transport_workers: workers,
            ..base.clone()
        };
        let ((cks, ckr, unroutable), _) = all_pairs(topo, plan.as_ref(), params, Protocol::Eager);
        assert_eq!(unroutable, 0, "{at}");
        assert_eq!(
            ckr,
            hops * packets,
            "{at}: one CKR forward per rank entered"
        );
        let streams = (n * (n - 1)) as u64;
        assert_eq!(
            cks,
            streams * packets,
            "{at}: one CKS forward, at the origin"
        );
    }
}

#[test]
fn transit_costs_one_crossing_per_rank() {
    for (name, topo) in [
        ("bus(5)", Topology::bus(5)),
        ("ring(6)", Topology::ring(6)),
        ("torus2d(3,3)", Topology::torus2d(3, 3)),
    ] {
        let placements = [(1, 1), (1, 2), (2, 2), (4, 2)];
        one_crossing_per_rank(name, &topo, RuntimeParams::default(), &placements);
    }
}

/// The same exchange under [`RuntimeParams::tight`]: one packet per burst
/// and links two bursts deep, so the CKS and the transit CKRs that share a
/// link keep refusing one another. Every stream still arrives bit-exact.
#[test]
fn shared_links_keep_every_stream_in_order_under_tight_fifos() {
    for (name, topo) in [
        ("bus(5)", Topology::bus(5)),
        ("torus2d(3,3)", Topology::torus2d(3, 3)),
    ] {
        let placements = [(1, 1), (1, 2), (2, 2)];
        one_crossing_per_rank(name, &topo, RuntimeParams::tight(), &placements);
    }
}

/// The p2p half of the credit plane's count gate: all-pairs on `bus(5)`
/// under a one-packet credit window, in memory on one worker, where the
/// counts repeat exactly. A grant is one more packet from the receiver,
/// so it costs what a data packet costs: one CKS forward at its origin and
/// one CKR forward per rank it enters. Each stream's 4 data packets take 3
/// grants, so the readings `(cks, ckr, polls)` are 20 streams × 7 packets,
/// Σ hops (40) × 7 packets, and the executor's polls.
const CREDIT_P2P: (u64, u64, u64) = (140, 280, 316);

#[test]
fn credit_grants_cost_one_crossing_per_rank_too() {
    let topo = Topology::bus(5);
    let params = RuntimeParams {
        transport_workers: 1,
        ..RuntimeParams::default()
    };
    let window = Protocol::Credit { window: EPP as u64 };
    let ((cks, ckr, unroutable), polls) = all_pairs(&topo, None, params, window);
    // `-- --nocapture` shows the reading.
    println!("credit p2p on bus(5): {cks} CKS, {ckr} CKR forwards, {polls} polls");
    assert_eq!(unroutable, 0);
    let (want_cks, want_ckr, want_polls) = CREDIT_P2P;
    assert_eq!((cks, ckr), (want_cks, want_ckr), "CKS and CKR forwards");
    assert!(polls as f64 <= 1.01 * want_polls as f64, "{polls} polls");
}

/// Bcast, then gather, rooted at rank 4 of `torus2d(3,3)`, under both
/// schemes: its eight peers sit behind all four of its CK pairs, so the
/// root's fan-out and its gather grants leave by every lane, and each
/// member's packets by the lane that faces the root. Under `Tree` the root
/// grants members ahead of the one it pops, whose blocks wait in its stash
/// while it drains its delivery. Tight FIFOs (one burst per lane, one
/// packet per burst) make lanes refuse in turn; both streams must still
/// arrive bit-exact.
#[test]
fn collectives_leave_a_four_pair_root_by_every_lane() {
    const ROOT: usize = 4;
    let topo = Topology::torus2d(3, 3);
    let n = topo.num_ranks();
    let count = 2 * EPP + 3;
    let meta = ProgramMeta::new()
        .with(OpSpec::bcast(0, Datatype::Int))
        .with(OpSpec::gather(1, Datatype::Int));
    let sent: Vec<i32> = (0..count).map(|i| value(ROOT, 0, i)).collect();
    let contribution = move |rank: usize| (0..count).map(move |i| value(rank, ROOT, i));
    let gathered: Vec<i32> = (0..n).flat_map(contribution).collect();
    let schemes = [CollectiveScheme::Linear, CollectiveScheme::Tree];
    for (scheme, workers) in schemes.into_iter().flat_map(|s| [(s, 1), (s, 2)]) {
        let root_data = sent.clone();
        let program = move |ctx: SmiCtx| {
            let (world, rank) = (ctx.world(), ctx.rank());
            let mut bcast = if rank == ROOT {
                root_data.clone()
            } else {
                vec![0; count]
            };
            let mut ch = ctx.open_bcast_channel(count as u64, 0, ROOT, &world)?;
            ch.bcast_slice(&mut bcast)?;
            drop(ch);
            let mut ch = ctx.open_gather_channel(count as u64, 1, ROOT, &world)?;
            ch.push_slice(&contribution(rank).collect::<Vec<i32>>())?;
            let mut gather = vec![0; if rank == ROOT { count * n } else { 0 }];
            if rank == ROOT {
                ch.pop_slice(&mut gather)?;
            }
            Ok::<_, SmiError>((bcast, gather))
        };
        let params = RuntimeParams {
            transport_workers: workers,
            collective_scheme: scheme,
            ..RuntimeParams::tight()
        };
        let at = format!("{scheme:?}, {workers} worker(s)");
        let report = run_spmd(&topo, meta.clone(), program, params).unwrap();
        for (rank, res) in report.results.iter().enumerate() {
            let (bcast, gather) = res.as_ref().unwrap_or_else(|e| panic!("rank {rank}: {e}"));
            assert!(*bcast == sent, "bcast at rank {rank}, {at}");
            if rank == ROOT {
                assert!(*gather == gathered, "gather, {at}");
            }
        }
        assert_eq!(report.transport.2, 0, "unroutable, {at}");
    }
}
