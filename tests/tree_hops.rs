//! Hop-aware collective trees, end to end: under `CollectiveScheme::Tree`
//! bcast and reduce run along the hop tree (`smi::collectives::topology`),
//! whatever the topology, root, worker count or communicator — same results
//! as `Linear` and as the analytically expected stream — and on `bus(32)`
//! every delivered packet crosses one CKR, the *count* a noisy host cannot
//! blur (`smi_benchmark`'s `bcast_tree_32r` pins the clock).

use std::sync::{Arc, Mutex};

use smi::prelude::*;

const EPP: usize = Datatype::Int.elems_per_packet();

fn bcast_value(i: usize) -> i32 {
    i as i32 * 3 + 1
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

enum Phase {
    Bcast(BcastChannel<i32>),
    Reduce(ReduceChannel<i32>),
}

/// `(broadcast as received, reduced stream as the root popped it)`.
type Streams = (Vec<i32>, Vec<i32>);

/// One world rank: a broadcast from `root`, then (optionally) an `Add`
/// reduce back to it, both on the poll-mode cores.
struct Member {
    ctx: SmiCtx,
    root: usize,
    then_reduce: bool,
    phase: Phase,
    off: usize,
    contrib: Vec<i32>,
    streams: Streams,
    out: Arc<Mutex<Vec<Streams>>>,
}

impl RankTask for Member {
    fn poll(&mut self) -> Result<TaskStatus, SmiError> {
        let (rank, count) = (self.ctx.rank(), self.streams.0.len());
        let (moved, done) = match &mut self.phase {
            Phase::Bcast(ch) => {
                let moved = ch.try_bcast_slice(&mut self.streams.0[self.off..])?;
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
        match (&self.phase, done) {
            (Phase::Bcast(_), true) if self.then_reduce => {
                let world = self.ctx.world();
                let ch = self
                    .ctx
                    .open_reduce_channel_poll(count as u64, 1, self.root, &world)?;
                // Assigning drops the bcast channel: its endpoint goes home.
                self.phase = Phase::Reduce(ch);
                self.off = 0;
                Ok(TaskStatus::Progress)
            }
            (_, true) => {
                self.out.lock().unwrap()[rank] = std::mem::take(&mut self.streams);
                Ok(TaskStatus::Done)
            }
            (_, false) if moved > 0 => Ok(TaskStatus::Progress),
            (_, false) => Ok(TaskStatus::Pending),
        }
    }
}

/// Run the members on the task plane; per-rank streams and the transport
/// counters `(cks_forwards, ckr_forwards, unroutable)`.
fn run_tasks(
    topo: &Topology,
    root: usize,
    count: usize,
    then_reduce: bool,
    scheme: CollectiveScheme,
    workers: usize,
) -> (Vec<Streams>, (u64, u64, u64)) {
    let out = Arc::new(Mutex::new(vec![Streams::default(); topo.num_ranks()]));
    let shared = out.clone();
    let factory = move |ctx: SmiCtx| {
        let world = ctx.world();
        let ch = ctx.open_bcast_channel_poll(count as u64, 0, root, &world)?;
        let sent = (0..count).map(bcast_value).collect();
        let is_root = ctx.rank() == root;
        let contrib = (0..count).map(|i| contribution(ctx.rank(), i)).collect();
        Ok(Box::new(Member {
            ctx,
            root,
            then_reduce,
            phase: Phase::Bcast(ch),
            off: 0,
            contrib,
            streams: (if is_root { sent } else { vec![0; count] }, vec![0; count]),
            out: shared.clone(),
        }) as Box<dyn RankTask>)
    };
    let params = RuntimeParams {
        collective_scheme: scheme,
        transport_workers: workers,
        ..RuntimeParams::default()
    };
    let report = run_spmd_tasks(topo, meta(), factory, params).unwrap();
    for (r, res) in report.results.iter().enumerate() {
        assert!(res.is_ok(), "rank {r}: {res:?}");
    }
    let streams = std::mem::take(&mut *out.lock().unwrap());
    (streams, report.transport)
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
        let want_bcast: Vec<i32> = (0..count).map(bcast_value).collect();
        for root in [0, n / 2, n - 1] {
            for workers in [1, 2] {
                let at = format!("{name} root {root}, {workers} worker(s)");
                let run = |scheme| run_tasks(&topo, root, count, true, scheme, workers).0;
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
/// On `bus(8)` either half's nearest member is two links away.
#[test]
fn sub_communicator_tree_matches_linear_and_the_expected_streams() {
    let count = 3 * EPP * 16 + 5;
    let run = |scheme| {
        let program = move |ctx: SmiCtx| {
            let half = ctx.world().split((ctx.rank() % 2) as i64, 0).unwrap();
            let mut streams: Streams = (vec![0; count], vec![0; count]);
            if half.rank() == 1 {
                streams.0 = (0..count).map(bcast_value).collect();
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
    let want_bcast: Vec<i32> = (0..count).map(bcast_value).collect();
    for rank in 0..8 {
        assert_eq!(tree[rank].0, want_bcast, "bcast at rank {rank}");
        assert_eq!(linear[rank].0, want_bcast, "linear bcast at rank {rank}");
    }
    // Member 1 of the evens is world rank 2, of the odds world rank 3.
    assert_eq!(tree[2].1, reduced(&[0, 2, 4, 6], count), "evens");
    assert_eq!(tree[3].1, reduced(&[1, 3, 5, 7], count), "odds");
    assert_eq!((&tree[2].1, &tree[3].1), (&linear[2].1, &linear[3].1));
}

/// `bus(32)`, root 0, one worker: along the chain every delivered packet is
/// handed over by exactly one CKR — its destination's — where the binomial
/// tree's long edges had transit ranks' CKRs pass 2.59 per delivery. It also
/// leaves by exactly one CKS — its sender's, the one whose port faces the
/// child — where relaying through the endpoint's bound CKS cost 1.97. What
/// is left above 1.0 is the open handshake's 31 ready announcements.
#[test]
fn bus_broadcast_packets_cross_one_ckr_each() {
    const PACKETS: usize = 400;
    let topo = Topology::bus(32);
    let scheme = CollectiveScheme::Tree;
    let (streams, transport) = run_tasks(&topo, 0, PACKETS * EPP, false, scheme, 1);
    let want: Vec<i32> = (0..PACKETS * EPP).map(bcast_value).collect();
    assert!(streams.iter().all(|(bcast, _)| *bcast == want));
    let (cks_forwards, ckr_forwards, unroutable) = transport;
    let delivered = (PACKETS * 31) as f64;
    // `-- --nocapture` shows the reading the docs quote.
    println!(
        "per delivered packet: {:.3} CKR forwards, {:.3} CKS forwards",
        ckr_forwards as f64 / delivered,
        cks_forwards as f64 / delivered
    );
    assert_eq!(unroutable, 0);
    assert!(
        ckr_forwards as f64 <= 1.01 * delivered,
        "{ckr_forwards} CKR forwards for {delivered} delivered packets"
    );
    assert!(
        cks_forwards as f64 <= 1.01 * delivered,
        "{cks_forwards} CKS forwards for {delivered} delivered packets"
    );
}
