//! Hop-aware collective trees, end to end: under `CollectiveScheme::Tree`
//! bcast and reduce run along the hop tree (`smi::collectives::topology`),
//! whatever the topology, root, worker count or communicator — same results
//! as `Linear` and as the analytically expected stream — and on `bus(32)`
//! every delivered packet crosses one CKR and no interior rank's CKS, the
//! *counts* a noisy host cannot blur (`smi_benchmark`'s `bcast_tree_32r`
//! pins the clock).
//!
//! An interior member does not relay: it names its children in its port's
//! fan-out, and the CKR its parent's stream enters by copies every frame
//! onto each child's link before delivering it. Nor does it relay its
//! subtree's readiness: the CKR that counts its last child's ready-`Sync`
//! sends the interior's own onto the parent's link. So the fan-out must follow
//! the member from message to message — roots that rotate on one port
//! leave no stale tree behind — and an interior that takes one element per
//! call under tight FIFOs must stall its subtree, not reorder or lose it.
//!
//! Scatter and gather have no interiors at all: every block travels root ↔
//! owner as its own stream, under either scheme, so each packet — block,
//! ready-`Sync` or grant — costs one CKS forward at its origin and one CKR
//! forward per routed hop, and a block is copied twice, once into its
//! frames and once out of them. On one worker the executor's polls per
//! scatter or gather message repeat exactly, and `bus(32)` holds them to
//! what they read before the two collectives shared one block sender and
//! one block receiver.

use std::sync::{Arc, Mutex};

use smi::prelude::*;
use smi_topology::RoutingPlan;

const EPP: usize = Datatype::Int.elems_per_packet();

/// Element `i` of broadcast message `m`.
fn bcast_value(m: usize, i: usize) -> i32 {
    (m * 1_000_000 + i * 3 + 1) as i32
}

/// Element `i` of world rank `r`'s block in scatter or gather message `m`.
fn block_value(m: usize, r: usize, i: usize) -> i32 {
    bcast_value(m, i) + (r * 20_000) as i32
}

fn contribution(world_rank: usize, i: usize) -> i32 {
    i as i32 * 7 + world_rank as i32
}

/// The reduced stream a root expects from `members` (world ranks).
fn reduced(members: &[usize], count: usize) -> Vec<i32> {
    let fold = |i| members.iter().map(|&w| contribution(w, i)).sum();
    (0..count).map(fold).collect()
}

/// The collective a [`Job`]'s messages run on port 0.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Bcast,
    Scatter,
    Gather,
}

fn meta(kind: Kind) -> ProgramMeta {
    let first = match kind {
        Kind::Bcast => OpSpec::bcast(0, Datatype::Int),
        Kind::Scatter => OpSpec::scatter(0, Datatype::Int),
        Kind::Gather => OpSpec::gather(0, Datatype::Int),
    };
    let reduce = OpSpec::reduce(1, Datatype::Int, ReduceOp::Add);
    ProgramMeta::new().with(first).with(reduce)
}

fn params(scheme: CollectiveScheme, workers: usize) -> RuntimeParams {
    RuntimeParams {
        collective_scheme: scheme,
        transport_workers: workers,
        ..RuntimeParams::default()
    }
}

/// What every member runs: one `kind` message per entry of `roots`, back
/// to back on port 0, then (optionally) an `Add` reduce to the first root.
#[derive(Clone)]
struct Job {
    kind: Kind,
    roots: Vec<usize>,
    count: usize,
    then_reduce: bool,
    /// A rank whose application takes one broadcast element per call.
    sipper: Option<usize>,
}

impl Job {
    fn new(roots: Vec<usize>, count: usize, then_reduce: bool) -> Job {
        Job {
            kind: Kind::Bcast,
            roots,
            count,
            then_reduce,
            sipper: None,
        }
    }

    /// Every broadcast's stream, back to back.
    fn want(&self) -> Vec<i32> {
        let message = |m| (0..self.count).map(move |i| bcast_value(m, i));
        (0..self.roots.len()).flat_map(message).collect()
    }

    /// What world rank `rank` of `n` receives in message `m`: the stream a
    /// bcast root sends, a scatter member's own block, a gather root's
    /// every block.
    fn message(&self, m: usize, rank: usize, n: usize) -> Vec<i32> {
        let block = |r| (0..self.count).map(move |i| block_value(m, r, i));
        match self.kind {
            Kind::Bcast => (0..self.count).map(|i| bcast_value(m, i)).collect(),
            Kind::Scatter => block(rank).collect(),
            Kind::Gather if rank == self.roots[m] => (0..n).flat_map(block).collect(),
            Kind::Gather => Vec::new(),
        }
    }
}

enum Phase {
    Bcast(BcastChannel<i32>),
    Scatter(ScatterChannel<i32>),
    Gather(GatherChannel<i32>),
    Reduce(ReduceChannel<i32>),
}

/// `(every message as received, back to back; the reduced stream as the
/// root popped it)`.
type Streams = (Vec<i32>, Vec<i32>);

/// One world rank running its [`Job`] on the poll-mode cores.
struct Member {
    ctx: SmiCtx,
    job: Arc<Job>,
    /// The message in progress.
    m: usize,
    /// `None` only between dropping one channel and opening the next: a
    /// port hosts one channel at a time.
    phase: Option<Phase>,
    /// What this rank feeds into message `m` (a scatter root's every
    /// block, a gather member's own).
    send: Vec<i32>,
    /// What this rank receives in message `m` (a bcast root's holds what it
    /// sends).
    recv: Vec<i32>,
    sent: usize,
    off: usize,
    contrib: Vec<i32>,
    streams: Streams,
    out: Arc<Mutex<Vec<Streams>>>,
}

impl Member {
    /// Open message `m` and set up its buffers.
    fn open(&mut self, m: usize) -> Result<(), SmiError> {
        let (ctx, job) = (&self.ctx, &self.job);
        let (count, root, world) = (job.count as u64, job.roots[m], ctx.world());
        let (rank, n) = (ctx.rank(), ctx.num_ranks());
        let is_root = rank == root;
        let (phase, send, recv) = match job.kind {
            Kind::Bcast => {
                let ch = ctx.open_bcast_channel_poll(count, 0, root, &world)?;
                let recv = if is_root {
                    job.message(m, rank, n)
                } else {
                    vec![0; job.count]
                };
                (Phase::Bcast(ch), Vec::new(), recv)
            }
            Kind::Scatter => {
                let ch = ctx.open_scatter_channel_poll(count, 0, root, &world)?;
                let send = if is_root {
                    (0..n).flat_map(|r| job.message(m, r, n)).collect()
                } else {
                    Vec::new()
                };
                (Phase::Scatter(ch), send, vec![0; job.count])
            }
            Kind::Gather => {
                let ch = ctx.open_gather_channel_poll(count, 0, root, &world)?;
                let own = (0..job.count).map(|i| block_value(m, rank, i)).collect();
                let recv = vec![0; if is_root { job.count * n } else { 0 }];
                (Phase::Gather(ch), own, recv)
            }
        };
        (self.m, self.phase, self.send, self.recv) = (m, Some(phase), send, recv);
        (self.sent, self.off) = (0, 0);
        Ok(())
    }
}

impl RankTask for Member {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        let (rank, count) = (self.ctx.rank(), self.job.count);
        let (sent, off) = (self.sent, self.off);
        let state = match self.phase.as_mut().expect("open between messages") {
            Phase::Bcast(ch) => {
                let left = count - self.off;
                let take = if self.job.sipper == Some(rank) {
                    left.min(1)
                } else {
                    left
                };
                self.off += ch.try_bcast_slice(&mut self.recv[off..off + take])?;
                ch.poll()?
            }
            Phase::Scatter(ch) => {
                if !self.send.is_empty() {
                    self.sent += ch.try_push_slice(&self.send[sent..])?;
                }
                self.off += ch.try_pop_slice(&mut self.recv[off..])?;
                ch.poll()?
            }
            Phase::Gather(ch) => {
                self.sent += ch.try_push_slice(&self.send[sent..])?;
                if !self.recv.is_empty() {
                    self.off += ch.try_pop_slice(&mut self.recv[off..])?;
                }
                ch.poll()?
            }
            Phase::Reduce(ch) => {
                let contrib = &self.contrib[off..];
                self.off += ch.try_reduce_slice(contrib, &mut self.streams.1[off..])?;
                ch.poll()?
            }
        };
        let moved = self.sent + self.off - sent - off;
        let recv_len = match self.phase {
            Some(Phase::Reduce(_)) => count,
            _ => self.recv.len(),
        };
        let fed = self.sent == self.send.len() && self.off == recv_len;
        if !(fed && state == CollectiveState::Done) {
            return Ok(if moved > 0 {
                TaskStatus::Progress
            } else {
                TaskStatus::Pending
            });
        }
        // Dropping the finished channel sends its endpoint home.
        if !matches!(self.phase.take(), Some(Phase::Reduce(_))) {
            self.streams.0.append(&mut self.recv);
            if self.m + 1 < self.job.roots.len() {
                self.open(self.m + 1)?;
                return Ok(TaskStatus::Progress);
            }
            if self.job.then_reduce {
                let (world, root) = (self.ctx.world(), self.job.roots[0]);
                let ch = self
                    .ctx
                    .open_reduce_channel_poll(count as u64, 1, root, &world)?;
                (self.phase, self.send, self.sent, self.off) =
                    (Some(Phase::Reduce(ch)), Vec::new(), 0, 0);
                return Ok(TaskStatus::Progress);
            }
        }
        self.out.lock().unwrap()[rank] = std::mem::take(&mut self.streams);
        Ok(TaskStatus::Done)
    }
}

type Report = RunReport<Result<(), SmiError>>;

/// Run `job` on the task plane — in memory, or split over UDS into `nproc`
/// processes — and return every rank's streams with the run's report.
fn run_tasks(
    topo: &Topology,
    nproc: usize,
    job: &Job,
    params: RuntimeParams,
) -> (Vec<Streams>, Report) {
    let n = topo.num_ranks();
    let out = Arc::new(Mutex::new(vec![Streams::default(); n]));
    let job = Arc::new(job.clone());
    let factories: Vec<TaskFactory> = (0..n)
        .map(|rank| {
            let (job, out) = (job.clone(), out.clone());
            Box::new(move |ctx: SmiCtx| {
                let count = job.count;
                let mut member = Member {
                    ctx,
                    m: 0,
                    phase: None,
                    send: Vec::new(),
                    recv: Vec::new(),
                    sent: 0,
                    off: 0,
                    contrib: (0..count).map(|i| contribution(rank, i)).collect(),
                    streams: (Vec::new(), vec![0; count]),
                    out,
                    job,
                };
                member.open(0)?;
                Ok(Box::new(member) as Box<dyn RankTask>)
            }) as TaskFactory
        })
        .collect();
    let metas = vec![meta(job.kind); n];
    let report = match nproc {
        1 => run_mpmd_tasks(topo, metas, factories, params),
        _ => {
            let plan = ProcessPlan::split(topo, TransportBackend::Uds, nproc);
            run_split_mpmd_tasks(&plan, metas, factories, params)
        }
    }
    .unwrap();
    for (r, res) in report.results.iter().enumerate() {
        assert!(res.is_ok(), "rank {r}: {res:?}");
    }
    assert_eq!(report.reconnects_healed, 0, "fault-free run healed");
    assert_eq!(report.wire_stats.stream_faults, 0, "fault-free run faulted");
    let streams = std::mem::take(&mut *out.lock().unwrap());
    (streams, report)
}

/// Bcast then reduce over topologies × roots × workers: `Tree` ≡ `Linear`
/// ≡ the expected streams. The count spans several credit windows and ends
/// on a partial packet.
#[test]
fn tree_matches_linear_and_the_expected_streams() {
    let count = 5 * EPP * 16 + 3;
    for (name, topo) in [
        ("bus(32)", Topology::bus(32)),
        ("ring(8)", Topology::ring(8)),
        ("torus2d(4,4)", Topology::torus2d(4, 4)),
    ] {
        let n = topo.num_ranks();
        let world: Vec<usize> = (0..n).collect();
        for root in [0, n / 2, n - 1] {
            let job = Job::new(vec![root], count, true);
            let want_bcast = job.want();
            for workers in [1, 2] {
                let at = format!("{name} root {root}, {workers} worker(s)");
                let run = |scheme| run_tasks(&topo, 1, &job, params(scheme, workers)).0;
                let (tree, linear) = (run(CollectiveScheme::Tree), run(CollectiveScheme::Linear));
                assert_eq!(tree, linear, "{at}");
                for (rank, (bcast, _)) in tree.iter().enumerate() {
                    assert_eq!(*bcast, want_bcast, "{at}: bcast at rank {rank}");
                }
                assert_eq!(tree[root].1, reduced(&world, count), "{at}: reduce");
            }
        }
    }
}

/// A world split into even and odd ranks, each half broadcasting from and
/// reducing to its own member 1 at once (thread plane: `split` blocks).
/// On `bus(8)` either half's nearest member is two links away, so an
/// interior's copies transit a rank of the other half.
#[test]
fn sub_communicator_tree_matches_linear_and_the_expected_streams() {
    let count = 3 * EPP * 16 + 5;
    let run = |scheme| {
        let program = move |ctx: SmiCtx| {
            let half = ctx.world().split((ctx.rank() % 2) as i64, 0).unwrap();
            let mut streams: Streams = (vec![0; count], vec![0; count]);
            if half.rank() == 1 {
                streams.0 = (0..count).map(|i| bcast_value(0, i)).collect();
            }
            let mut ch = ctx.open_bcast_channel(count as u64, 0, 1, &half).unwrap();
            ch.bcast_slice(&mut streams.0).unwrap();
            drop(ch);
            let contrib: Vec<i32> = (0..count).map(|i| contribution(ctx.rank(), i)).collect();
            let mut ch = ctx.open_reduce_channel(count as u64, 1, 1, &half).unwrap();
            ch.reduce_slice(&contrib, &mut streams.1).unwrap();
            streams
        };
        let params = RuntimeParams {
            collective_scheme: scheme,
            ..RuntimeParams::default()
        };
        run_spmd(&Topology::bus(8), meta(Kind::Bcast), program, params)
            .unwrap()
            .results
    };
    let (tree, linear) = (run(CollectiveScheme::Tree), run(CollectiveScheme::Linear));
    let want_bcast: Vec<i32> = (0..count).map(|i| bcast_value(0, i)).collect();
    for rank in 0..8 {
        assert_eq!(tree[rank].0, want_bcast, "bcast at rank {rank}");
        assert_eq!(linear[rank].0, want_bcast, "linear bcast at rank {rank}");
    }
    // Member 1 of the evens is world rank 2, of the odds world rank 3.
    assert_eq!(tree[2].1, reduced(&[0, 2, 4, 6], count), "evens");
    assert_eq!(tree[3].1, reduced(&[1, 3, 5, 7], count), "odds");
    assert_eq!((&tree[2].1, &tree[3].1), (&linear[2].1, &linear[3].1));
}

/// Executor polls that [`bus_broadcast_packets_cross_one_ckr_each`] allows
/// for its 400-packet message: 1.01 × the 1 409 (0.114 per delivered
/// packet) it reads since the interiors' CKRs fold their children's
/// readiness. The interiors' rank tasks relaying it cost 2 847 (0.230), and
/// relaying every data window as well 3 705 (0.299).
const POLLS: f64 = 1.01 * 1409.0;

/// `bus(32)`, root 0, one worker: along the chain every delivered packet is
/// handed over by exactly one CKR — its destination's — where the binomial
/// tree's long edges had transit ranks' CKRs pass 2.59 per delivery, and
/// so is every ready announcement. Only the root's packets and the leaf's
/// announcement cross a CKS, each once at its origin: an interior's CKR
/// writes its child's link itself, and so does the CKR that counts an
/// interior's last child with the interior's announcement. While the
/// interiors' rank tasks sent those, the CKSs read 431 (30 more); while
/// they relayed the data too, 1.002 per delivered packet. The payload is
/// copied 32 times: framed once at the root (a run a CKR's multicast only
/// re-addresses) and deframed once into each receiver's slice.
#[test]
fn bus_broadcast_packets_cross_one_ckr_each() {
    const PACKETS: usize = 400;
    let topo = Topology::bus(32);
    let job = Job::new(vec![0], PACKETS * EPP, false);
    let (streams, report) = run_tasks(&topo, 1, &job, params(CollectiveScheme::Tree, 1));
    let want = job.want();
    assert!(streams.iter().all(|(bcast, _)| *bcast == want));
    let (cks_forwards, ckr_forwards, unroutable) = report.transport;
    let [stats] = report.worker_stats[..] else {
        panic!("one worker: {:?}", report.worker_stats);
    };
    let delivered = PACKETS * 31;
    let per_delivered = |v: u64| v as f64 / delivered as f64;
    // `-- --nocapture` shows the reading the docs quote.
    println!(
        "per delivered packet: {:.3} CKR forwards, {:.3} CKS forwards, {:.3} polls \
         ({ckr_forwards} CKR, {cks_forwards} CKS forwards, {} polls, {} payload bytes copied)",
        per_delivered(ckr_forwards),
        per_delivered(cks_forwards),
        per_delivered(stats.polls),
        stats.polls,
        report.payload_copies
    );
    assert_eq!(unroutable, 0);
    let message_bytes = PACKETS * EPP * Datatype::Int.size_bytes();
    assert_eq!(
        report.payload_copies,
        (32 * message_bytes) as u64,
        "one framing copy at the root, one deframe copy per receiver"
    );
    assert_eq!(
        ckr_forwards,
        (delivered + 31) as u64,
        "one CKR forward per delivered packet and per announcement"
    );
    assert_eq!(
        cks_forwards,
        (PACKETS + 1) as u64,
        "the root's packets and the leaf's announcement"
    );
    assert!(stats.polls as f64 <= POLLS, "{} polls", stats.polls);
}

/// The reduce half of the credit plane's count gate: on `bus(32)`, root 0,
/// `Tree`, one worker, a broadcast and then a reduce of five credit windows
/// and 3 elements (`reduce_credits` 512). Every tree edge is one link, so
/// each reduce packet and each grant crosses one CKS at its origin and one
/// CKR. The readings `(cks, ckr, polls)`: the broadcast's 367 packets
/// cost 368 CKS and 11 408 CKR forwards (as in
/// [`bus_broadcast_packets_cross_one_ckr_each`]), and each of the 31 edges
/// carries 371 reduce packets (74 per window, one for the tail) and 5
/// grants, 11 656 of each; then the executor's polls.
const CREDIT_REDUCE: (u64, u64, u64) = (12_024, 23_064, 3_952);

#[test]
fn bus_reduce_grants_cross_one_link_each() {
    credit_reduce_gate(CollectiveScheme::Tree, CREDIT_REDUCE);
}

/// The same job under `Linear`: the root grants its 31 leaves every window
/// and each leaf streams straight to the root, across as many links as it
/// is ranks away. Per leaf, 744 packets cross one CKS at their origin:
/// the broadcast's 367 and its ready `Sync`, 371 reduce packets and 5
/// grants — 23 064 in all; and each crosses one CKR per rank it enters, so
/// leaf `d` costs 744 × `d` and the 31 leaves 744 × 496 = 369 024. Then
/// the executor's polls.
const CREDIT_REDUCE_LINEAR: (u64, u64, u64) = (23_064, 369_024, 15_354);

#[test]
fn bus_linear_reduce_streams_every_leaf_to_the_root() {
    credit_reduce_gate(CollectiveScheme::Linear, CREDIT_REDUCE_LINEAR);
}

/// A broadcast then an `Add` reduce of 5 × 512 + 3 elements on `bus(32)`,
/// root 0, one worker, under `scheme`: the reduced stream must be exact,
/// the forwards must read `want` exactly and the polls at most 1.01 × its
/// reading.
fn credit_reduce_gate(scheme: CollectiveScheme, want: (u64, u64, u64)) {
    let topo = Topology::bus(32);
    let count = 5 * 512 + 3;
    let job = Job::new(vec![0], count, true);
    let (streams, report) = run_tasks(&topo, 1, &job, params(scheme, 1));
    let world: Vec<usize> = (0..32).collect();
    assert_eq!(streams[0].1, reduced(&world, count));
    let (cks, ckr, unroutable) = report.transport;
    let polls: u64 = report.worker_stats.iter().map(|w| w.polls).sum();
    // `-- --nocapture` shows the reading.
    println!(
        "bcast then {scheme:?} reduce on bus(32): {cks} CKS, {ckr} CKR forwards, {polls} polls"
    );
    assert_eq!(unroutable, 0);
    let (want_cks, want_ckr, want_polls) = want;
    assert_eq!((cks, ckr), (want_cks, want_ckr), "CKS and CKR forwards");
    assert!(polls as f64 <= 1.01 * want_polls as f64, "{polls} polls");
}

/// Roots 0, n − 1, n/2, 1, n − 2, 2 in turn on one port, on `bus(8)` and
/// `torus2d(3,3)`, in memory on one and two workers and split over UDS. On
/// the torus some members are interior for one root and leaves for the
/// next (rank 4 has a child under root 0 and none under root 8, rank 6 the
/// other way round), so a fan-out that outlived its channel would copy the
/// next message to former children. Every tree edge is one link, so each
/// delivered packet and each ready announcement crosses exactly one CKR: a
/// stale copy would show up in that count, if not already in the streams.
/// A member that finished a message may announce itself ready for the next
/// to a member still receiving this one, under either scheme; that
/// announcement waits for the receiver's next open.
#[test]
fn rotating_roots_on_one_port_leave_no_stale_fan_out() {
    let count = 3 * EPP * 16 + 5;
    let packets = count.div_ceil(EPP) as u64;
    for (name, topo) in [
        ("bus(8)", Topology::bus(8)),
        ("torus2d(3,3)", Topology::torus2d(3, 3)),
    ] {
        let n = topo.num_ranks();
        let job = Job::new(vec![0, n - 1, n / 2, 1, n - 2, 2], count, false);
        let want = job.want();
        for (nproc, workers) in [(1, 1), (1, 2), (2, 2)] {
            let at = format!("{name}, {nproc} process(es), {workers} worker(s)");
            let linear = params(CollectiveScheme::Linear, workers);
            let (streams, _) = run_tasks(&topo, nproc, &job, linear);
            for (rank, (bcast, _)) in streams.iter().enumerate() {
                assert!(*bcast == want, "{at}: linear bcasts at rank {rank}");
            }
            let tree = params(CollectiveScheme::Tree, workers);
            let (streams, report) = run_tasks(&topo, nproc, &job, tree);
            for (rank, (bcast, _)) in streams.iter().enumerate() {
                assert!(*bcast == want, "{at}: bcasts at rank {rank}");
            }
            let (_, ckr_forwards, unroutable) = report.transport;
            assert_eq!(unroutable, 0, "{at}");
            let per_message = (n as u64 - 1) * (packets + 1);
            assert_eq!(
                ckr_forwards,
                job.roots.len() as u64 * per_message,
                "{at}: one CKR crossing per delivered packet and announcement"
            );
        }
    }
}

/// Rank 1 — interior under root 0 on `bus(8)` and on `torus2d(3,3)` — takes
/// one element per call under [`RuntimeParams::tight`] (one packet per
/// burst, two-burst links): its delivery fills and parks the CKR that
/// feeds it, whose copies to the children went first. Every member's
/// stream must still arrive bit-exact, on one worker and on two.
#[test]
fn an_interior_that_sips_stalls_its_subtree_in_order() {
    let count = 40 * EPP + 3;
    for (name, topo) in [
        ("bus(8)", Topology::bus(8)),
        ("torus2d(3,3)", Topology::torus2d(3, 3)),
    ] {
        let job = Job {
            sipper: Some(1),
            ..Job::new(vec![0, 0], count, false)
        };
        let want = job.want();
        for workers in [1, 2] {
            let params = RuntimeParams {
                transport_workers: workers,
                collective_scheme: CollectiveScheme::Tree,
                ..RuntimeParams::tight()
            };
            let (streams, report) = run_tasks(&topo, 1, &job, params);
            for (rank, (bcast, _)) in streams.iter().enumerate() {
                assert!(*bcast == want, "{name}, {workers} worker(s): rank {rank}");
            }
            assert_eq!(report.transport.2, 0, "{name}: unroutable");
        }
    }
}

/// Run `kind` messages from each of `roots` in turn on one port, under both
/// schemes, on `bus(8)` and `torus2d(3,3)`, in memory on one and two
/// workers and split over UDS. Every member must receive exactly its
/// messages, and every packet the collective sends — each block's packets
/// (a block goes out as one run), each ready-`Sync` or grant — must cost
/// one CKS forward at its origin and one CKR forward per routed hop: a
/// block that an interior relayed would cost more of both. In memory each
/// element is copied exactly twice when `copies` is set (a packet-aligned
/// `count`): framed at its source, drained at its owner, the root's own
/// block included.
fn blocks_route_root_to_owner(
    kind: Kind,
    roots: fn(usize) -> Vec<usize>,
    count: usize,
    copies: bool,
) {
    let packets = count.div_ceil(EPP) as u64;
    for (name, topo) in [
        ("bus(8)", Topology::bus(8)),
        ("torus2d(3,3)", Topology::torus2d(3, 3)),
    ] {
        let n = topo.num_ranks();
        let roots = roots(n);
        let job = Job {
            kind,
            ..Job::new(roots.clone(), count, false)
        };
        let routes = RoutingPlan::compute(&topo).unwrap();
        let hops = |src, dst| routes.hops(src, dst) as u64;
        // Root → member and member → root: a scatter's blocks go out, its
        // ready-`Sync`s come in; a gather's grants go out, its blocks in.
        let (mut out_hops, mut in_hops) = (0, 0);
        for &root in &roots {
            out_hops += (0..n).map(|m| hops(root, m)).sum::<u64>();
            in_hops += (0..n).map(|m| hops(m, root)).sum::<u64>();
        }
        let ckr = match kind {
            Kind::Scatter => out_hops * packets + in_hops,
            _ => out_hops + in_hops * packets,
        };
        let cks = (roots.len() * (n - 1)) as u64 * (packets + 1);
        let payload = (roots.len() * n * count * std::mem::size_of::<i32>()) as u64;
        for (nproc, workers) in [(1, 1), (1, 2), (2, 2)] {
            for scheme in [CollectiveScheme::Linear, CollectiveScheme::Tree] {
                let at =
                    format!("{kind:?} {scheme:?} {name}, {nproc} process(es), {workers} worker(s)");
                let (streams, report) = run_tasks(&topo, nproc, &job, params(scheme, workers));
                for (rank, (got, _)) in streams.iter().enumerate() {
                    let want: Vec<i32> = (0..roots.len())
                        .flat_map(|m| job.message(m, rank, n))
                        .collect();
                    assert!(*got == want, "{at}: rank {rank} received other data");
                }
                let (cks_forwards, ckr_forwards, unroutable) = report.transport;
                assert_eq!(unroutable, 0, "{at}");
                assert_eq!(ckr_forwards, ckr, "{at}: one CKR forward per routed hop");
                assert_eq!(cks_forwards, cks, "{at}: one CKS forward per packet");
                if copies && nproc == 1 {
                    let copied = report.payload_copies;
                    assert_eq!(copied, 2 * payload, "{at}: two copies per payload byte");
                }
            }
        }
    }
}

/// Scatter and gather from roots 0 and n/2, packet-aligned: the exact
/// count gates, copies included.
#[test]
fn scatter_and_gather_blocks_cross_no_interior() {
    for kind in [Kind::Scatter, Kind::Gather] {
        blocks_route_root_to_owner(kind, |n| vec![0, n / 2], 3 * EPP * 16, true);
    }
}

/// Roots 0, n − 1, n/2, 1, n − 2, 2 in turn on one port, every message with
/// its own values and a partial last packet. A member that finished a
/// message opens the next at once: its ready-`Sync` or its grant can reach
/// a member still in this message, even one that is no child or no root
/// in it, and must wait there for the next open.
#[test]
fn rotating_roots_on_one_port_route_every_block_to_its_owner() {
    let roots = |n| vec![0, n - 1, n / 2, 1, n - 2, 2];
    for kind in [Kind::Scatter, Kind::Gather] {
        blocks_route_root_to_owner(kind, roots, 3 * EPP * 16 + 5, false);
    }
}

/// Executor polls per message on `bus(32)`, root 0, one worker, in memory,
/// four messages back to back, as they read while scatter and gather still
/// had a protocol core each: `(kind, scheme, count, polls per message)`.
/// Sharing one block sender and one block receiver left the schedule as it
/// was, so the gate allows 1 % over these readings.
const POLLS_PER_MESSAGE: [(Kind, CollectiveScheme, usize, f64); 8] = [
    (Kind::Scatter, CollectiveScheme::Linear, 1, 1647.0),
    (Kind::Scatter, CollectiveScheme::Linear, 4096, 1693.0),
    (Kind::Scatter, CollectiveScheme::Tree, 1, 1647.0),
    (Kind::Scatter, CollectiveScheme::Tree, 4096, 1693.0),
    (Kind::Gather, CollectiveScheme::Linear, 1, 15533.75),
    (Kind::Gather, CollectiveScheme::Linear, 4096, 15533.75),
    (Kind::Gather, CollectiveScheme::Tree, 1, 1566.5),
    (Kind::Gather, CollectiveScheme::Tree, 4096, 9758.75),
];

/// The executor's schedule for scatter and gather, by count: on one worker
/// the polls repeat exactly, so a protocol change that costs the executor
/// more polls shows here whatever the host's clock does.
#[test]
fn scatter_and_gather_polls_per_message_hold() {
    const MESSAGES: usize = 4;
    let topo = Topology::bus(32);
    for (kind, scheme, count, budget) in POLLS_PER_MESSAGE {
        let job = Job {
            kind,
            ..Job::new(vec![0; MESSAGES], count, false)
        };
        let (_, report) = run_tasks(&topo, 1, &job, params(scheme, 1));
        let [stats] = report.worker_stats[..] else {
            panic!("one worker: {:?}", report.worker_stats);
        };
        let (cks, ckr, _) = report.transport;
        let per = |v: u64| v as f64 / MESSAGES as f64;
        let polls = per(stats.polls);
        // `-- --nocapture` shows the readings.
        println!(
            "{kind:?} {scheme:?} count {count}: per message {polls:.2} polls, {:.2} progress, \
             {:.2} CKS and {:.2} CKR forwards",
            per(stats.progress),
            per(cks),
            per(ckr)
        );
        assert!(
            polls <= 1.01 * budget,
            "{kind:?} {scheme:?} count {count}: {polls:.2} polls per message"
        );
    }
}
