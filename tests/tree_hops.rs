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
//! onto each child's link before delivering it. So the fan-out must follow
//! the member from message to message — roots that rotate on one port
//! leave no stale tree behind — and an interior that takes one element per
//! call under tight FIFOs must stall its subtree, not reorder or lose it.

use std::sync::{Arc, Mutex};

use smi::prelude::*;

const EPP: usize = Datatype::Int.elems_per_packet();

/// Element `i` of broadcast message `m`.
fn bcast_value(m: usize, i: usize) -> i32 {
    (m * 1_000_000 + i * 3 + 1) as i32
}

fn contribution(world_rank: usize, i: usize) -> i32 {
    i as i32 * 7 + world_rank as i32
}

/// The reduced stream a root expects from `members` (world ranks).
fn reduced(members: &[usize], count: usize) -> Vec<i32> {
    let fold = |i| members.iter().map(|&w| contribution(w, i)).sum();
    (0..count).map(fold).collect()
}

fn meta() -> ProgramMeta {
    ProgramMeta::new()
        .with(OpSpec::bcast(0, Datatype::Int))
        .with(OpSpec::reduce(1, Datatype::Int, ReduceOp::Add))
}

fn params(scheme: CollectiveScheme, workers: usize) -> RuntimeParams {
    RuntimeParams {
        collective_scheme: scheme,
        transport_workers: workers,
        ..RuntimeParams::default()
    }
}

/// What every member runs: one broadcast per entry of `roots`, back to
/// back on port 0, then (optionally) an `Add` reduce to the first root.
#[derive(Clone)]
struct Job {
    roots: Vec<usize>,
    count: usize,
    then_reduce: bool,
    /// A rank whose application takes one broadcast element per call.
    sipper: Option<usize>,
}

impl Job {
    fn new(roots: Vec<usize>, count: usize, then_reduce: bool) -> Job {
        Job {
            roots,
            count,
            then_reduce,
            sipper: None,
        }
    }

    /// Every message's broadcast stream, back to back.
    fn want(&self) -> Vec<i32> {
        let message = |m| (0..self.count).map(move |i| bcast_value(m, i));
        (0..self.roots.len()).flat_map(message).collect()
    }
}

enum Phase {
    Bcast(BcastChannel<i32>),
    Reduce(ReduceChannel<i32>),
}

/// `(every broadcast as received, back to back; the reduced stream as the
/// root popped it)`.
type Streams = (Vec<i32>, Vec<i32>);

/// One world rank running its [`Job`] on the poll-mode cores.
struct Member {
    ctx: SmiCtx,
    job: Arc<Job>,
    /// The broadcast message in progress.
    m: usize,
    /// `None` only between dropping one channel and opening the next: a
    /// port hosts one channel at a time.
    phase: Option<Phase>,
    off: usize,
    contrib: Vec<i32>,
    streams: Streams,
    out: Arc<Mutex<Vec<Streams>>>,
}

impl Member {
    fn open_bcast(ctx: &SmiCtx, job: &Job, m: usize) -> Result<Phase, SmiError> {
        let (count, root) = (job.count as u64, job.roots[m]);
        let ch = ctx.open_bcast_channel_poll(count, 0, root, &ctx.world())?;
        Ok(Phase::Bcast(ch))
    }
}

impl RankTask for Member {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        let (rank, count) = (self.ctx.rank(), self.job.count);
        let (moved, done) = match self.phase.as_mut().expect("open between messages") {
            Phase::Bcast(ch) => {
                let left = count - self.off;
                let take = if self.job.sipper == Some(rank) {
                    left.min(1)
                } else {
                    left
                };
                let at = self.m * count + self.off;
                let moved = ch.try_bcast_slice(&mut self.streams.0[at..at + take])?;
                let done = self.off + moved == count && ch.poll()? == CollectiveState::Done;
                (moved, done)
            }
            Phase::Reduce(ch) => {
                let contrib = &self.contrib[self.off..];
                let moved = ch.try_reduce_slice(contrib, &mut self.streams.1[self.off..])?;
                let done = self.off + moved == count && ch.poll()? == CollectiveState::Done;
                (moved, done)
            }
        };
        self.off += moved;
        if !done {
            return Ok(if moved > 0 {
                TaskStatus::Progress
            } else {
                TaskStatus::Pending
            });
        }
        self.off = 0;
        // Dropping the finished channel sends its endpoint home.
        if matches!(self.phase.take(), Some(Phase::Bcast(_))) {
            self.m += 1;
            if self.m < self.job.roots.len() {
                self.phase = Some(Member::open_bcast(&self.ctx, &self.job, self.m)?);
                return Ok(TaskStatus::Progress);
            }
            if self.job.then_reduce {
                let (world, root) = (self.ctx.world(), self.job.roots[0]);
                let ch = self
                    .ctx
                    .open_reduce_channel_poll(count as u64, 1, root, &world)?;
                self.phase = Some(Phase::Reduce(ch));
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
                // The root's slots hold what it sends, every other slot is
                // filled by the broadcast.
                let mine = |m: usize| job.roots[m] == rank;
                let sent = (0..job.roots.len())
                    .flat_map(|m| {
                        (0..count).map(move |i| if mine(m) { bcast_value(m, i) } else { 0 })
                    })
                    .collect();
                let phase = Member::open_bcast(&ctx, &job, 0)?;
                Ok(Box::new(Member {
                    ctx,
                    m: 0,
                    phase: Some(phase),
                    off: 0,
                    contrib: (0..count).map(|i| contribution(rank, i)).collect(),
                    streams: (sent, vec![0; count]),
                    out,
                    job,
                }) as Box<dyn RankTask>)
            }) as TaskFactory
        })
        .collect();
    let metas = vec![meta(); n];
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
        run_spmd(&Topology::bus(8), meta(), program, params)
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

/// Executor polls per delivered packet that [`bus_broadcast_packets_cross_one_ckr_each`]
/// allows: 0.8 × the 0.299 (3 705 polls) an interior that relayed every
/// window through its rank task cost.
const POLLS_PER_DELIVERED_PACKET: f64 = 0.8 * 0.299;

/// `bus(32)`, root 0, one worker: along the chain every delivered packet is
/// handed over by exactly one CKR — its destination's — where the binomial
/// tree's long edges had transit ranks' CKRs pass 2.59 per delivery. And
/// only the root's packets and the 31 ready announcements cross a CKS, each
/// once at its origin: an interior's CKR writes its child's link itself.
/// While interiors relayed through their rank task the CKSs read 1.002 per
/// delivered packet (1.97 when the endpoint's bound CKS relayed too). The
/// executor polls 0.8 × less than it did for the relaying interiors.
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
    let delivered = (PACKETS * 31) as f64;
    let originated = (PACKETS + 31) as f64;
    let polls = stats.polls as f64 / delivered;
    // `-- --nocapture` shows the reading the docs quote.
    println!(
        "per delivered packet: {:.3} CKR forwards, {:.3} CKS forwards, {polls:.3} polls \
         ({} polls)",
        ckr_forwards as f64 / delivered,
        cks_forwards as f64 / delivered,
        stats.polls
    );
    assert_eq!(unroutable, 0);
    assert!(
        ckr_forwards as f64 <= 1.01 * delivered,
        "{ckr_forwards} CKR forwards for {delivered} delivered packets"
    );
    assert!(
        cks_forwards as f64 <= 1.01 * originated,
        "{cks_forwards} CKS forwards for {originated} originated packets"
    );
    assert!(
        polls <= POLLS_PER_DELIVERED_PACKET,
        "{polls:.3} polls per delivered packet"
    );
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
