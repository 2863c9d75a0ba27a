//! The one file that touches the measured crates' public API (`smi`,
//! `smi_wire`, `smi_topology`). Everything else in the benchmark goes
//! through these functions, so an API change re-points exactly this file.
//! Each wrapped call runs inside [`Probe::call`], which is where the
//! per-layer counters and the traced run's spans are taken.

use smi::prelude::*;
use smi_topology::RoutingPlan;
use smi_wire::{Deframer, PacketOp, PacketRun};

use crate::trace::{now_ns, Kind, Probe};

pub use smi::{Communicator, RankTask, SmiCtx, SmiError, TaskFactory, TaskStatus};

/// Elements of the benchmark's datatype (`i32`) per 32-byte wire packet.
pub const ELEMS_PER_PACKET: usize = Datatype::Int.elems_per_packet();

/// The fabric one repetition launches: `bus(ranks)`, either all in memory
/// or split into two halves joined by a Unix-domain socket.
#[derive(Clone, Copy, Debug)]
pub struct Fabric {
    pub ranks: usize,
    pub split_uds: bool,
    /// Executor workers per process group; always explicit, never auto.
    pub workers: usize,
    pub tree_collectives: bool,
}

/// One port a rank's program declares (the op metadata of `ProgramMeta`).
#[derive(Clone, Copy, Debug)]
pub enum PortOp {
    Send(usize),
    Recv(usize),
    Bcast(usize),
    ReduceAdd(usize),
}

/// `RunReport`'s counters as plain values.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub cks_forwards: u64,
    pub ckr_forwards: u64,
    pub unroutable: u64,
    pub payload_copy_bytes: u64,
    pub send_syscalls: u64,
    pub send_bytes: u64,
    pub recv_syscalls: u64,
    pub recv_bytes: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub corked_frames: u64,
    pub threads_spawned: u64,
    pub reconnects_healed: u64,
    /// Per executor worker: `(polls, progress, steals, parks)`.
    pub workers: Vec<(u64, u64, u64, u64)>,
    /// Ranks whose task returned an error, with the error's text.
    pub rank_errors: Vec<(usize, String)>,
}

/// Launch `factories` (one per rank) on `fabric` in cooperative task mode
/// and return the run's counters; `Err` is a launch failure.
pub fn launch(
    fabric: &Fabric,
    ports: &[Vec<PortOp>],
    factories: Vec<TaskFactory>,
) -> Result<Counts, String> {
    let topo = Topology::bus(fabric.ranks);
    let metas: Vec<ProgramMeta> = ports
        .iter()
        .map(|ops| {
            ops.iter().fold(ProgramMeta::new(), |m, op| {
                m.with(match *op {
                    PortOp::Send(p) => OpSpec::send(p, Datatype::Int),
                    PortOp::Recv(p) => OpSpec::recv(p, Datatype::Int),
                    PortOp::Bcast(p) => OpSpec::bcast(p, Datatype::Int),
                    PortOp::ReduceAdd(p) => OpSpec::reduce(p, Datatype::Int, ReduceOp::Add),
                })
            })
        })
        .collect();
    let params = RuntimeParams {
        transport_workers: fabric.workers,
        collective_scheme: if fabric.tree_collectives {
            CollectiveScheme::Tree
        } else {
            CollectiveScheme::Linear
        },
        ..RuntimeParams::default()
    };
    let report = if fabric.split_uds {
        let plan = ProcessPlan::split(&topo, TransportBackend::Uds, 2);
        run_split_mpmd_tasks(&plan, metas, factories, params)
    } else {
        run_mpmd_tasks(&topo, metas, factories, params)
    }
    .map_err(|e| e.to_string())?;
    let w = report.wire_stats;
    Ok(Counts {
        cks_forwards: report.transport.0,
        ckr_forwards: report.transport.1,
        unroutable: report.transport.2,
        payload_copy_bytes: report.payload_copies,
        send_syscalls: w.send_syscalls,
        send_bytes: w.send_bytes,
        recv_syscalls: w.recv_syscalls,
        recv_bytes: w.recv_bytes,
        pool_hits: w.pool_hits,
        pool_misses: w.pool_misses,
        corked_frames: w.corked_frames,
        threads_spawned: report.threads_spawned as u64,
        reconnects_healed: report.reconnects_healed as u64,
        workers: report
            .worker_stats
            .iter()
            .map(|s| (s.polls, s.progress, s.steals, s.parks))
            .collect(),
        rank_errors: report
            .results
            .iter()
            .enumerate()
            .filter_map(|(r, res)| res.as_ref().err().map(|e| (r, e.to_string())))
            .collect(),
    })
}

/// The world communicator collectives open on.
pub fn world(ctx: &SmiCtx) -> Communicator {
    ctx.world()
}

/// The sending end of one transient p2p message.
pub struct Tx(SendChannel<i32>);

impl Tx {
    pub fn open(
        ctx: &SmiCtx,
        count: usize,
        dst: usize,
        port: usize,
        probe: &mut Probe,
    ) -> Result<Tx, SmiError> {
        probe
            .call(
                Kind::Open,
                || ctx.open_send_channel::<i32>(count as u64, dst, port),
                |_| 1,
            )
            .map(Tx)
    }

    pub fn try_push(&mut self, data: &[i32], probe: &mut Probe) -> Result<usize, SmiError> {
        probe.call(Kind::Push, || self.0.try_push_slice(data), |n| *n)
    }

    /// Drain staged packets; true once the transport accepted the whole
    /// message.
    pub fn try_finish(&mut self, probe: &mut Probe) -> Result<bool, SmiError> {
        let ch = &mut self.0;
        probe.call(
            Kind::Flush,
            || Ok(ch.try_flush()? && ch.fully_sent()),
            |done| usize::from(*done),
        )
    }
}

/// The receiving end of one transient p2p message.
pub struct Rx(RecvChannel<i32>);

impl Rx {
    pub fn open(
        ctx: &SmiCtx,
        count: usize,
        src: usize,
        port: usize,
        probe: &mut Probe,
    ) -> Result<Rx, SmiError> {
        probe
            .call(
                Kind::Open,
                || ctx.open_recv_channel::<i32>(count as u64, src, port),
                |_| 1,
            )
            .map(Rx)
    }

    pub fn try_pop(&mut self, out: &mut [i32], probe: &mut Probe) -> Result<usize, SmiError> {
        probe.call(Kind::Pop, || self.0.try_pop_slice(out), |n| *n)
    }
}

/// One member's end of a collective rooted at rank 0 on port 0.
pub struct Coll<C>(C);

/// A broadcast from rank 0.
pub type Bcast = Coll<BcastChannel<i32>>;
/// An elementwise-add reduction to rank 0.
pub type Reduce = Coll<ReduceChannel<i32>>;

impl<C: CollectivePoll> Coll<C> {
    /// Whether the open handshake is over.
    pub fn streaming(&self) -> bool {
        self.0.state() != CollectiveState::Opening
    }

    /// Advance staged traffic; true once the collective is `Done`.
    pub fn poll_done(&mut self, probe: &mut Probe) -> Result<bool, SmiError> {
        probe.call(
            Kind::Poll,
            || Ok(self.0.poll()? == CollectiveState::Done),
            |done| usize::from(*done),
        )
    }
}

impl Bcast {
    pub fn open(
        ctx: &SmiCtx,
        world: &Communicator,
        count: usize,
        probe: &mut Probe,
    ) -> Result<Bcast, SmiError> {
        probe
            .call(
                Kind::Open,
                || ctx.open_bcast_channel_poll::<i32>(count as u64, 0, 0, world),
                |_| 1,
            )
            .map(Coll)
    }

    pub fn try_bcast(&mut self, data: &mut [i32], probe: &mut Probe) -> Result<usize, SmiError> {
        probe.call(Kind::Bcast, || self.0.try_bcast_slice(data), |n| *n)
    }
}

impl Reduce {
    pub fn open(
        ctx: &SmiCtx,
        world: &Communicator,
        count: usize,
        probe: &mut Probe,
    ) -> Result<Reduce, SmiError> {
        probe
            .call(
                Kind::Open,
                || ctx.open_reduce_channel_poll::<i32>(count as u64, 0, 0, world),
                |_| 1,
            )
            .map(Coll)
    }

    pub fn try_reduce(
        &mut self,
        snd: &[i32],
        out: &mut [i32],
        probe: &mut Probe,
    ) -> Result<usize, SmiError> {
        probe.call(Kind::Reduce, || self.0.try_reduce_slice(snd, out), |n| *n)
    }
}

/// Standalone `smi_topology` call: route generation for `bus(ranks)`, the
/// same call every launch makes.
pub fn route_compute(ranks: usize) -> Result<usize, String> {
    RoutingPlan::compute(&Topology::bus(ranks))
        .map(|p| p.max_hops())
        .map_err(|e| e.to_string())
}

/// Standalone `smi_wire` calls, as `channel.rs` makes them for a
/// whole-packet-aligned bulk slice: frame `data` into runs of up to
/// `burst_packets` packets, then refill a deframer from each run and drain
/// it into `out`. Returns `(frame_ns, deframe_ns, elements written)`.
pub fn frame_deframe(data: &[i32], out: &mut [i32]) -> (u64, u64, usize) {
    let span = RuntimeParams::default().burst_packets * ELEMS_PER_PACKET;
    let t0 = now_ns();
    let runs: Vec<PacketRun> = data
        .chunks(span)
        .map(|c| PacketRun::from_elems(0, 1, 0, PacketOp::Send, c))
        .collect();
    let t1 = now_ns();
    let mut d = Deframer::new(Datatype::Int);
    let mut filled = 0;
    for r in runs {
        d.refill_run(r.payload);
        filled += d.pop_slice(&mut out[filled..]);
    }
    (t1 - t0, now_ns() - t1, filled)
}
