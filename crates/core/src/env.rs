//! The cluster environment: launching SPMD/MPMD programs over the sharded
//! transport.
//!
//! Mirrors the paper's workflow (Fig. 8): the op metadata (what the Clang
//! pass would extract) plus the topology produce the communication design
//! and routing tables; the "host program" — here [`run_spmd`]/[`run_mpmd`] —
//! uploads them, starts the transport, runs one application per rank, and
//! tears everything down.
//!
//! Two execution models are provided:
//!
//! * **Thread-per-rank** ([`run_mpmd`]/[`run_spmd`]): each rank program is
//!   an arbitrary blocking closure on its own OS thread. The transport (all
//!   CKS/CKR state machines) runs on the sharded executor — a fixed pool of
//!   worker threads — instead of one thread per CK kernel, so the thread
//!   bill is `ranks + workers` rather than `ranks + 4·ranks`.
//! * **Cooperative tasks** ([`run_mpmd_tasks`]/[`run_spmd_tasks`]): rank
//!   programs are poll-mode state machines (like the paper's hardware
//!   kernels) scheduled on the *same* worker pool as the transport. A
//!   64-rank cluster then runs on `workers` threads total — this is the
//!   execution model that scales past the OS thread budget. Tasks must only
//!   use the non-blocking channel APIs ([`crate::SendChannel::try_push_slice`],
//!   [`crate::RecvChannel::try_pop_slice`], the collective `try_*` forms) and
//!   open collectives with the rendezvous-free `open_*_channel_poll`
//!   variants.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use smi_codegen::{ClusterDesign, CodegenError, OpKind, ProgramMeta};
use smi_topology::{RoutingPlan, Topology, TopologyError};
use smi_wire::reduce::SmiNumeric;
use smi_wire::SmiType;

use crate::channel::{Protocol, RecvChannel, SendChannel};
use crate::collectives::{
    BcastChannel, CollectiveScheme, GatherChannel, ReduceChannel, ScatterChannel,
};
use crate::comm::{Communicator, SplitBoard};
use crate::endpoint::{new_table, EndpointTable, EndpointTableHandle};
use crate::params::RuntimeParams;
pub use crate::transport::executor::WorkerStats;
use crate::transport::executor::{Pollable, ShardedExecutor, Step};
use crate::transport::socket::FabricHealth;
use crate::transport::wiring::{build_transport, FabricLinks, TransportHandle};
use crate::transport::{TransportStats, WireSnapshot};
use crate::SmiError;

/// Per-rank execution context: the handle through which a rank's code opens
/// channels (the role played by the generated device interface + host header
/// in the paper's workflow).
pub struct SmiCtx {
    rank: usize,
    num_ranks: usize,
    table: EndpointTableHandle,
    board: Arc<SplitBoard>,
    params: RuntimeParams,
}

impl SmiCtx {
    /// This rank (world).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the cluster.
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    /// The world communicator (`SMI_COMM_WORLD`).
    pub fn world(&self) -> Communicator {
        Communicator::world(self.num_ranks, self.rank, self.board.clone())
    }

    /// The runtime configuration.
    pub fn params(&self) -> &RuntimeParams {
        &self.params
    }

    /// `SMI_Open_send_channel`: a transient channel sending `count` elements
    /// of `T` to world rank `dst` on `port` (eager protocol).
    pub fn open_send_channel<T: SmiType>(
        &self,
        count: u64,
        dst: usize,
        port: usize,
    ) -> Result<SendChannel<T>, SmiError> {
        self.open_send_channel_with(count, dst, port, Protocol::Eager)
    }

    /// `open_send_channel` with an explicit transmission protocol (§3.3).
    pub fn open_send_channel_with<T: SmiType>(
        &self,
        count: u64,
        dst: usize,
        port: usize,
        protocol: Protocol,
    ) -> Result<SendChannel<T>, SmiError> {
        let my = smi_wire::header::rank_to_wire(self.rank)?;
        if dst >= self.num_ranks {
            return Err(SmiError::BadRank {
                rank: dst,
                size: self.num_ranks,
            });
        }
        let dstw = smi_wire::header::rank_to_wire(dst)?;
        SendChannel::open(
            self.table.clone(),
            my,
            dstw,
            port,
            count,
            protocol,
            self.params.blocking_timeout,
            self.params.burst_packets,
        )
    }

    /// `SMI_Open_recv_channel`: a transient channel receiving `count`
    /// elements of `T` from world rank `src` on `port` (eager protocol).
    pub fn open_recv_channel<T: SmiType>(
        &self,
        count: u64,
        src: usize,
        port: usize,
    ) -> Result<RecvChannel<T>, SmiError> {
        self.open_recv_channel_with(count, src, port, Protocol::Eager)
    }

    /// `open_recv_channel` with an explicit transmission protocol.
    pub fn open_recv_channel_with<T: SmiType>(
        &self,
        count: u64,
        src: usize,
        port: usize,
        protocol: Protocol,
    ) -> Result<RecvChannel<T>, SmiError> {
        let my = smi_wire::header::rank_to_wire(self.rank)?;
        if src >= self.num_ranks {
            return Err(SmiError::BadRank {
                rank: src,
                size: self.num_ranks,
            });
        }
        let srcw = smi_wire::header::rank_to_wire(src)?;
        RecvChannel::open(
            self.table.clone(),
            my,
            srcw,
            port,
            count,
            protocol,
            self.params.blocking_timeout,
        )
    }

    /// `SMI_Open_bcast_channel`: `root` is a communicator rank.
    ///
    /// Blocking form: completes the §3.3 one-to-all rendezvous before
    /// returning (the root waits for every receiver's ready announcement).
    /// Cooperative tasks must use [`SmiCtx::open_bcast_channel_poll`].
    pub fn open_bcast_channel<T: SmiType>(
        &self,
        count: u64,
        port: usize,
        root: usize,
        comm: &Communicator,
    ) -> Result<BcastChannel<T>, SmiError> {
        let mut chan = self.open_bcast_channel_poll(count, port, root, comm)?;
        chan.wait_open()?;
        Ok(chan)
    }

    /// Poll-mode `SMI_Open_bcast_channel`: returns immediately with the
    /// handshake in progress ([`crate::CollectiveState::Opening`]); the
    /// caller drives it with [`crate::CollectivePoll::poll`] or the `try_*`
    /// operations. This is the task-safe variant — an in-progress open
    /// never parks the calling thread, so [`RankTask`] programs on
    /// [`run_mpmd_tasks`] can open collectives cooperatively.
    pub fn open_bcast_channel_poll<T: SmiType>(
        &self,
        count: u64,
        port: usize,
        root: usize,
        comm: &Communicator,
    ) -> Result<BcastChannel<T>, SmiError> {
        self.open_bcast_channel_poll_with_scheme(
            count,
            port,
            root,
            comm,
            self.params.collective_scheme,
        )
    }

    /// [`SmiCtx::open_bcast_channel_poll`] with an explicit routing scheme,
    /// overriding [`crate::RuntimeParams::collective_scheme`]. Every member
    /// of the collective must pick the same scheme.
    pub fn open_bcast_channel_poll_with_scheme<T: SmiType>(
        &self,
        count: u64,
        port: usize,
        root: usize,
        comm: &Communicator,
        scheme: CollectiveScheme,
    ) -> Result<BcastChannel<T>, SmiError> {
        BcastChannel::open(
            self.table.clone(),
            comm,
            count,
            port,
            root,
            scheme,
            &self.params,
        )
    }

    /// `SMI_Open_reduce_channel`: `root` is a communicator rank; the
    /// reduction operator comes from the port's op metadata.
    ///
    /// Reduce needs no open handshake (the first credit window is
    /// implicitly granted), so this never blocks; it is identical to
    /// [`SmiCtx::open_reduce_channel_poll`] and safe from tasks when only
    /// the `try_*` operations are used afterwards.
    pub fn open_reduce_channel<T: SmiNumeric>(
        &self,
        count: u64,
        port: usize,
        root: usize,
        comm: &Communicator,
    ) -> Result<ReduceChannel<T>, SmiError> {
        self.open_reduce_channel_poll(count, port, root, comm)
    }

    /// Poll-mode `SMI_Open_reduce_channel` (task-safe; see
    /// [`SmiCtx::open_bcast_channel_poll`] for the execution model).
    pub fn open_reduce_channel_poll<T: SmiNumeric>(
        &self,
        count: u64,
        port: usize,
        root: usize,
        comm: &Communicator,
    ) -> Result<ReduceChannel<T>, SmiError> {
        self.open_reduce_channel_poll_with_scheme(
            count,
            port,
            root,
            comm,
            self.params.collective_scheme,
        )
    }

    /// [`SmiCtx::open_reduce_channel_poll`] with an explicit routing scheme
    /// (see [`SmiCtx::open_bcast_channel_poll_with_scheme`]).
    pub fn open_reduce_channel_poll_with_scheme<T: SmiNumeric>(
        &self,
        count: u64,
        port: usize,
        root: usize,
        comm: &Communicator,
        scheme: CollectiveScheme,
    ) -> Result<ReduceChannel<T>, SmiError> {
        ReduceChannel::open(
            self.table.clone(),
            comm,
            count,
            port,
            root,
            scheme,
            &self.params,
        )
    }

    /// Open a scatter channel: `root` is a communicator rank; the root
    /// pushes `count × N` elements, every member pops `count`.
    ///
    /// Blocking form: a non-root member waits until its ready announcement
    /// left for the root. Cooperative tasks must use
    /// [`SmiCtx::open_scatter_channel_poll`].
    pub fn open_scatter_channel<T: SmiType>(
        &self,
        count: u64,
        port: usize,
        root: usize,
        comm: &Communicator,
    ) -> Result<ScatterChannel<T>, SmiError> {
        let mut chan = self.open_scatter_channel_poll(count, port, root, comm)?;
        chan.wait_open()?;
        Ok(chan)
    }

    /// Poll-mode scatter open (task-safe; see
    /// [`SmiCtx::open_bcast_channel_poll`] for the execution model).
    pub fn open_scatter_channel_poll<T: SmiType>(
        &self,
        count: u64,
        port: usize,
        root: usize,
        comm: &Communicator,
    ) -> Result<ScatterChannel<T>, SmiError> {
        self.open_scatter_channel_poll_with_scheme(
            count,
            port,
            root,
            comm,
            self.params.collective_scheme,
        )
    }

    /// [`SmiCtx::open_scatter_channel_poll`] with an explicit routing
    /// scheme (see [`SmiCtx::open_bcast_channel_poll_with_scheme`]).
    pub fn open_scatter_channel_poll_with_scheme<T: SmiType>(
        &self,
        count: u64,
        port: usize,
        root: usize,
        comm: &Communicator,
        scheme: CollectiveScheme,
    ) -> Result<ScatterChannel<T>, SmiError> {
        ScatterChannel::open(
            self.table.clone(),
            comm,
            count,
            port,
            root,
            scheme,
            &self.params,
        )
    }

    /// Open a gather channel: every member pushes `count` elements, the root
    /// pops `count × N`.
    ///
    /// Gather's serialized grants arrive during streaming, not at open, so
    /// this never blocks; it is identical to
    /// [`SmiCtx::open_gather_channel_poll`] and safe from tasks when only
    /// the `try_*` operations are used afterwards.
    pub fn open_gather_channel<T: SmiType>(
        &self,
        count: u64,
        port: usize,
        root: usize,
        comm: &Communicator,
    ) -> Result<GatherChannel<T>, SmiError> {
        self.open_gather_channel_poll(count, port, root, comm)
    }

    /// Poll-mode gather open (task-safe; see
    /// [`SmiCtx::open_bcast_channel_poll`] for the execution model).
    pub fn open_gather_channel_poll<T: SmiType>(
        &self,
        count: u64,
        port: usize,
        root: usize,
        comm: &Communicator,
    ) -> Result<GatherChannel<T>, SmiError> {
        self.open_gather_channel_poll_with_scheme(
            count,
            port,
            root,
            comm,
            self.params.collective_scheme,
        )
    }

    /// [`SmiCtx::open_gather_channel_poll`] with an explicit routing
    /// scheme (see [`SmiCtx::open_bcast_channel_poll_with_scheme`]).
    pub fn open_gather_channel_poll_with_scheme<T: SmiType>(
        &self,
        count: u64,
        port: usize,
        root: usize,
        comm: &Communicator,
        scheme: CollectiveScheme,
    ) -> Result<GatherChannel<T>, SmiError> {
        GatherChannel::open(
            self.table.clone(),
            comm,
            count,
            port,
            root,
            scheme,
            &self.params,
        )
    }
}

/// Outcome of a cluster run.
#[derive(Debug)]
pub struct RunReport<T> {
    /// Per-rank return values, in rank order.
    pub results: Vec<T>,
    /// `(cks_forwards, ckr_forwards, unroutable)` transport counters.
    pub transport: (u64, u64, u64),
    /// Payload bytes copied end to end — framing, refill, fan-out
    /// duplication, socket serialization and consumer drain all count;
    /// `Arc` handovers do not (see [`crate::transport::CopyMeter`]).
    /// Dividing by the payload bytes moved gives copies per element byte.
    pub payload_copies: u64,
    /// Socket-plane wire counters: syscalls and bytes in both directions,
    /// buffer-pool hits/misses and cork merges (see
    /// [`crate::transport::WireSnapshot`]). All zeros for the in-memory
    /// fabric; for split runs the counters aggregate every socket
    /// connection of the run. `send_bytes_per_syscall()` is the headline
    /// number the vectored, corked flush optimizes.
    pub wire_stats: WireSnapshot,
    /// OS threads the runtime spawned for this run (rank threads, if any,
    /// plus executor workers).
    pub threads_spawned: usize,
    /// Mid-stream socket reconnects that healed (replayed and resumed)
    /// during the run. Always `0` for the in-memory fabric.
    pub reconnects_healed: usize,
    /// Per-worker scheduling counters of the executor pool(s): polls,
    /// progress, steals, parks. For split (multi-process-shaped) runs the
    /// groups' workers are concatenated in process order. Imbalance shows
    /// up here — a worker whose `progress` dwarfs its siblings' while their
    /// `steals` stay zero means stealing is off or defeated.
    pub worker_stats: Vec<WorkerStats>,
}

/// Launch errors.
#[derive(Debug)]
pub enum LaunchError {
    /// Invalid op metadata / design.
    Codegen(CodegenError),
    /// Route generation failed.
    Topology(TopologyError),
    /// Invalid process plan, or the cross-process fabric could not be
    /// established (socket setup/IO failure).
    Plan(String),
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::Codegen(e) => write!(f, "codegen: {e}"),
            LaunchError::Topology(e) => write!(f, "topology: {e}"),
            LaunchError::Plan(e) => write!(f, "process plan: {e}"),
        }
    }
}

impl std::error::Error for LaunchError {}

/// Validate the launch inputs and build the transport for the ranks marked
/// local in `links` ([`FabricLinks::all_local`] when one process hosts the
/// whole cluster), splicing the pre-established external links
/// (socket-backed or otherwise) into the cross-rank edges. Every process of
/// a split fabric must run this with the *same* topology and metas so the
/// cluster design — and therefore the edge set — agrees on both sides of
/// every socket.
pub(crate) fn prepare_with(
    topo: &Topology,
    metas: &[ProgramMeta],
    params: &RuntimeParams,
    stats: TransportStats,
    links: FabricLinks,
) -> Result<TransportHandle, LaunchError> {
    assert_eq!(metas.len(), topo.num_ranks(), "one ProgramMeta per rank");
    let design = ClusterDesign::mpmd(metas, topo).map_err(LaunchError::Codegen)?;
    design
        .validate_collectives()
        .map_err(LaunchError::Codegen)?;
    let plan = RoutingPlan::compute(topo).map_err(LaunchError::Topology)?;
    Ok(build_transport(topo, &plan, &design, params, stats, links))
}

/// Where this process's ranks live relative to the rest of the cluster —
/// what the stall watchdog and error escalation need to say something
/// useful when the other side of a socket stops talking.
pub(crate) struct FabricDiag {
    /// Transport backend carrying cross-process edges (`"inmem"`, `"uds"`,
    /// `"tcp"`).
    pub backend: &'static str,
    /// Peer-liveness board shared with the socket pumps.
    pub health: FabricHealth,
    /// World rank → (process index, peer address) for every rank hosted by
    /// another OS process. Empty when the whole fabric is in-memory.
    pub remote: HashMap<usize, (usize, String)>,
}

impl Default for FabricDiag {
    fn default() -> Self {
        FabricDiag {
            backend: "inmem",
            health: FabricHealth::default(),
            remote: HashMap::new(),
        }
    }
}

/// Render the task-plane stall report: which world ranks stopped making
/// progress, over which backend, and — when the fabric spans processes —
/// which remote peer is implicated (by address, so an operator can find
/// the dead process without cross-referencing the process plan).
pub(crate) fn stall_message(stalled: &[usize], diag: &FabricDiag) -> String {
    let mut msg = format!(
        "smi: stall watchdog: rank(s) {stalled:?} made no progress within the blocking deadline \
         (backend={})",
        diag.backend
    );
    if let Some(pd) = diag.health.peer_down() {
        msg.push_str(&format!(
            "; peer rank {} is down (process {}, {} {}): {}",
            pd.rank, pd.process, pd.backend, pd.addr, pd.detail
        ));
    } else if diag.health.any_reconnecting() {
        let peers: Vec<String> = diag
            .health
            .reconnecting_peers()
            .iter()
            .map(|r| {
                format!(
                    "process {} hosting rank {} (attempt {}: {})",
                    r.process, r.rank, r.attempt, r.detail
                )
            })
            .collect();
        msg.push_str(&format!(
            "; mid-stream reconnect in flight: {}",
            peers.join(", ")
        ));
    } else if !diag.remote.is_empty() {
        let mut peers: Vec<String> = diag
            .remote
            .iter()
            .map(|(r, (p, addr))| format!("rank {r} (process {p}, {addr})"))
            .collect();
        peers.sort();
        msg.push_str(&format!("; remote peers: {}", peers.join(", ")));
    }
    msg
}

/// Results of running one process's share of the cluster: world-rank-tagged
/// outcomes plus the thread bill.
pub(crate) struct GroupOutcome<T> {
    /// `(world_rank, result)` for every rank this process hosted.
    pub results: Vec<(usize, T)>,
    /// OS threads spawned (rank threads, if any, plus executor workers).
    pub threads_spawned: usize,
    /// Mid-stream socket reconnects that healed in this group's fabric.
    pub reconnects_healed: usize,
    /// Final per-worker scheduling counters of this group's executor.
    pub worker_stats: Vec<WorkerStats>,
}

fn make_ctx(
    rank: usize,
    num_ranks: usize,
    table: EndpointTable,
    board: Arc<SplitBoard>,
    params: RuntimeParams,
) -> SmiCtx {
    let handle = new_table();
    *handle.lock() = table;
    SmiCtx {
        rank,
        num_ranks,
        table: handle,
        board,
        params,
    }
}

/// Run one process's ranks in thread-per-rank mode: spawn a thread per
/// local rank, drive the machines (CK kernels plus any socket pumps) on
/// the sharded executor, and only tear the executor down after
/// `on_complete` returns.
///
/// `on_complete` is the fabric-wide completion barrier: when the cluster
/// is split across OS processes it must not return until *every* rank in
/// *every* process finished, so a peer still draining its final bursts
/// never observes this process's sockets closing early. A rank finishing
/// proves all data it needed arrived, so once all ranks everywhere are
/// done, anything still in flight is protocol residue and the sockets can
/// drop. Single-process callers pass a no-op. The barrier is waited even
/// when a local rank panicked — peers must not hang on a barrier this
/// process abandoned — and the panic is resumed after teardown.
///
/// `programs` aligns with `tables` (both ordered by world rank).
pub(crate) fn run_group_threaded<T: Send + 'static>(
    tables: Vec<(usize, EndpointTable)>,
    programs: Vec<Box<dyn FnOnce(SmiCtx) -> T + Send>>,
    num_ranks: usize,
    machines: Vec<Box<dyn Pollable>>,
    params: &RuntimeParams,
    on_complete: Box<dyn FnOnce() + Send>,
) -> GroupOutcome<T> {
    assert_eq!(tables.len(), programs.len(), "one program per local rank");
    let stop = Arc::new(AtomicBool::new(false));
    let executor = ShardedExecutor::spawn(machines, params.resolved_workers(), stop.clone());
    let board = Arc::new(SplitBoard::default());

    let world: Vec<usize> = tables.iter().map(|(r, _)| *r).collect();
    let mut app_handles = Vec::with_capacity(tables.len());
    for ((rank, table), program) in tables.into_iter().zip(programs) {
        let board = board.clone();
        let params = params.clone();
        app_handles.push(
            std::thread::Builder::new()
                .name(format!("smi-rank-{rank}"))
                .spawn(move || program(make_ctx(rank, num_ranks, table, board, params)))
                .expect("spawn rank thread"),
        );
    }
    let threads_spawned = app_handles.len() + executor.num_workers();
    let mut results = Vec::with_capacity(app_handles.len());
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
    for (i, h) in app_handles.into_iter().enumerate() {
        match h.join() {
            Ok(v) => results.push((world[i], v)),
            Err(p) => {
                // Release everything so remaining joins cannot hang forever.
                stop.store(true, Ordering::SeqCst);
                panic.get_or_insert(p);
            }
        }
    }
    on_complete();
    stop.store(true, Ordering::SeqCst);
    let worker_stats = executor.join();
    if let Some(p) = panic {
        std::panic::resume_unwind(p);
    }
    GroupOutcome {
        results,
        threads_spawned,
        // The threaded runner has no fabric diagnostics in scope; split
        // runners overwrite this from their own health board.
        reconnects_healed: 0,
        worker_stats,
    }
}

/// Run an MPMD program: one closure per rank, each with its own op metadata.
pub fn run_mpmd<T: Send + 'static>(
    topo: &Topology,
    metas: Vec<ProgramMeta>,
    programs: Vec<Box<dyn FnOnce(SmiCtx) -> T + Send>>,
    params: RuntimeParams,
) -> Result<RunReport<T>, LaunchError> {
    assert_eq!(programs.len(), topo.num_ranks(), "one program per rank");
    let stats = TransportStats::default();
    let links = FabricLinks::all_local(topo.num_ranks());
    let transport = prepare_with(topo, &metas, &params, stats.clone(), links)?;
    let num_ranks = topo.num_ranks();
    let outcome = run_group_threaded(
        transport.tables,
        programs,
        num_ranks,
        transport.machines,
        &params,
        Box::new(|| {}),
    );
    let mut slots: Vec<Option<T>> = (0..num_ranks).map(|_| None).collect();
    for (rank, v) in outcome.results {
        slots[rank] = Some(v);
    }
    Ok(RunReport {
        results: slots
            .into_iter()
            .map(|s| s.expect("one result per rank"))
            .collect(),
        transport: stats.snapshot(),
        payload_copies: stats.payload_copies.count(),
        wire_stats: stats.wire.snapshot(),
        threads_spawned: outcome.threads_spawned,
        reconnects_healed: outcome.reconnects_healed,
        worker_stats: outcome.worker_stats,
    })
}

/// Run an SPMD program: the same op metadata and closure on every rank
/// ("only one instance of the code is generated", §4.5).
pub fn run_spmd<T, F>(
    topo: &Topology,
    meta: ProgramMeta,
    program: F,
    params: RuntimeParams,
) -> Result<RunReport<T>, LaunchError>
where
    T: Send + 'static,
    F: Fn(SmiCtx) -> T + Send + Sync + Clone + 'static,
{
    let metas = vec![meta; topo.num_ranks()];
    let programs: Vec<Box<dyn FnOnce(SmiCtx) -> T + Send>> = (0..topo.num_ranks())
        .map(|_| {
            let f = program.clone();
            Box::new(move |ctx: SmiCtx| f(ctx)) as Box<dyn FnOnce(SmiCtx) -> T + Send>
        })
        .collect();
    run_mpmd(topo, metas, programs, params)
}

// ---------------------------------------------------------------------------
// Cooperative task plane
// ---------------------------------------------------------------------------

/// Progress report of one cooperative poll step of a rank task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// Moved data this step; poll again promptly (keeps the worker's
    /// backoff reset — report this whenever any element was pushed/popped).
    Progress,
    /// Nothing to do until the transport accepts or supplies data.
    Pending,
    /// The rank program completed.
    Done,
}

/// A rank program as a poll-mode state machine — the software analogue of
/// the paper's pipelined hardware kernels. `poll` must never block: use the
/// `try_*` channel APIs and return [`TaskStatus::Pending`] when the
/// transport cannot accept or supply data right now.
pub trait RankTask: Send {
    /// Advance as far as currently possible.
    fn poll(&mut self) -> Result<TaskStatus, SmiError>;
}

/// Builds one rank's task from its context (runs on an executor worker).
pub type TaskFactory = Box<dyn FnOnce(SmiCtx) -> Result<Box<dyn RankTask>, SmiError> + Send>;

enum TaskState {
    Init {
        ctx: Box<SmiCtx>,
        factory: TaskFactory,
    },
    Running(Box<dyn RankTask>),
    Finished,
}

/// Executor adapter: drives one rank task and reports its outcome.
struct RankTaskItem {
    rank: usize,
    state: TaskState,
    done_tx: crossbeam::channel::Sender<(usize, Result<(), SmiError>)>,
    /// Bumped on every poll that made progress — the per-rank liveness
    /// signal the stall watchdog reads, so one livelocked rank cannot hide
    /// behind other ranks' (or the transport's) progress.
    progress: Arc<std::sync::atomic::AtomicU64>,
}

impl Pollable for RankTaskItem {
    fn home_rank(&self) -> Option<usize> {
        Some(self.rank)
    }

    fn poll(&mut self) -> Step {
        let state = std::mem::replace(&mut self.state, TaskState::Finished);
        match state {
            TaskState::Init { ctx, factory } => match factory(*ctx) {
                Ok(task) => {
                    self.state = TaskState::Running(task);
                    self.progress.fetch_add(1, Ordering::Relaxed);
                    Step::Progress
                }
                Err(e) => {
                    let _ = self.done_tx.send((self.rank, Err(e)));
                    Step::Done
                }
            },
            TaskState::Running(mut task) => match task.poll() {
                Ok(TaskStatus::Progress) => {
                    self.state = TaskState::Running(task);
                    self.progress.fetch_add(1, Ordering::Relaxed);
                    Step::Progress
                }
                Ok(TaskStatus::Pending) => {
                    self.state = TaskState::Running(task);
                    Step::Idle
                }
                Ok(TaskStatus::Done) => {
                    // Drop the task (returning endpoint resources) before
                    // reporting completion.
                    drop(task);
                    let _ = self.done_tx.send((self.rank, Ok(())));
                    Step::Done
                }
                Err(e) => {
                    drop(task);
                    let _ = self.done_tx.send((self.rank, Err(e)));
                    Step::Done
                }
            },
            TaskState::Finished => Step::Done,
        }
    }
}

/// Run an MPMD program in cooperative task mode: every rank task *and* every
/// CK state machine is driven by the sharded executor's worker pool, so the
/// whole cluster uses `workers` OS threads regardless of rank count.
///
/// The only restriction compared to [`run_mpmd`] is that rank tasks must be
/// non-blocking: use the `try_*` channel APIs, and open collectives with
/// the poll-mode variants ([`SmiCtx::open_bcast_channel_poll`] & friends),
/// whose rendezvous-free handshake is driven by
/// [`crate::CollectivePoll::poll`]/`try_*` instead of blocking inside open.
pub fn run_mpmd_tasks(
    topo: &Topology,
    metas: Vec<ProgramMeta>,
    factories: Vec<TaskFactory>,
    params: RuntimeParams,
) -> Result<RunReport<Result<(), SmiError>>, LaunchError> {
    assert_eq!(factories.len(), topo.num_ranks(), "one task per rank");
    let stats = TransportStats::default();
    let links = FabricLinks::all_local(topo.num_ranks());
    let transport = prepare_with(topo, &metas, &params, stats.clone(), links)?;
    let num_ranks = topo.num_ranks();
    let diag = FabricDiag::default();
    let outcome = run_group_tasks(
        transport.tables,
        factories,
        num_ranks,
        transport.machines,
        &params,
        &diag,
        Box::new(|| {}),
    );
    let mut results: Vec<Result<(), SmiError>> = (0..num_ranks)
        .map(|_| Err(SmiError::TransportClosed))
        .collect();
    for (rank, res) in outcome.results {
        results[rank] = res;
    }
    Ok(RunReport {
        results,
        transport: stats.snapshot(),
        payload_copies: stats.payload_copies.count(),
        wire_stats: stats.wire.snapshot(),
        threads_spawned: outcome.threads_spawned,
        reconnects_healed: outcome.reconnects_healed,
        worker_stats: outcome.worker_stats,
    })
}

/// Run one process's ranks in cooperative task mode: rank tasks and
/// machines (CK kernels plus socket pumps) all on the executor's worker
/// pool. See [`run_group_threaded`] for the `on_complete` completion
/// barrier contract; `factories` aligns with `tables`.
pub(crate) fn run_group_tasks(
    tables: Vec<(usize, EndpointTable)>,
    factories: Vec<TaskFactory>,
    num_ranks: usize,
    machines: Vec<Box<dyn Pollable>>,
    params: &RuntimeParams,
    diag: &FabricDiag,
    on_complete: Box<dyn FnOnce() + Send>,
) -> GroupOutcome<Result<(), SmiError>> {
    assert_eq!(tables.len(), factories.len(), "one task per local rank");
    let stop = Arc::new(AtomicBool::new(false));
    let board = Arc::new(SplitBoard::default());
    let locals = tables.len();
    let world: Vec<usize> = tables.iter().map(|(r, _)| *r).collect();
    let local_of: HashMap<usize, usize> = world.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    let (done_tx, done_rx) = crossbeam::channel::unbounded();

    let rank_progress: Vec<Arc<std::sync::atomic::AtomicU64>> = (0..locals)
        .map(|_| Arc::new(std::sync::atomic::AtomicU64::new(0)))
        .collect();
    let mut items: Vec<Box<dyn Pollable>> = machines;
    for (i, ((rank, table), factory)) in tables.into_iter().zip(factories).enumerate() {
        items.push(Box::new(RankTaskItem {
            rank,
            state: TaskState::Init {
                ctx: Box::new(make_ctx(
                    rank,
                    num_ranks,
                    table,
                    board.clone(),
                    params.clone(),
                )),
                factory,
            },
            done_tx: done_tx.clone(),
            progress: rank_progress[i].clone(),
        }));
    }
    drop(done_tx);
    let executor = ShardedExecutor::spawn(items, params.resolved_workers(), stop.clone());
    let threads_spawned = executor.num_workers();

    let mut results: Vec<Result<(), SmiError>> = (0..locals)
        .map(|_| Err(SmiError::TransportClosed))
        .collect();
    let mut reported = vec![false; locals];
    let mut remaining = locals;
    // Stall watchdog: the blocking plane bounds every stalled operation by
    // `blocking_timeout`; the cooperative plane's analogue is "no unfinished
    // rank task made progress for a whole timeout window" — e.g. a failed
    // rank leaving its peer polling Pending forever. Progress is tracked
    // *per rank* (not executor-wide), so a livelocked rank cannot be masked
    // by transport churn or other ranks' activity, and the stall report
    // names exactly the ranks that stopped moving. The run is only ended
    // when every unfinished local rank stalled — a single rank legitimately
    // idle while its peers stream (e.g. awaiting a serialized gather grant)
    // does not trip it. When the fabric spans processes and a peer process
    // is known dead, the stall is reported as [`SmiError::PeerDisconnected`]
    // rather than a generic [`SmiError::Stalled`].
    let snapshot = |v: &[Arc<std::sync::atomic::AtomicU64>]| -> Vec<u64> {
        v.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    };
    let mut last_progress = snapshot(&rank_progress);
    while remaining > 0 {
        match done_rx.recv_timeout(params.blocking_timeout) {
            Ok((rank, res)) => {
                let i = local_of[&rank];
                results[i] = res;
                reported[i] = true;
                remaining -= 1;
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                let now = snapshot(&rank_progress);
                if diag.health.any_reconnecting() {
                    // Mid-stream recovery in flight: reconnect attempts are
                    // bounded by their own budget (which ends in either a
                    // healed stream or a recorded peer death), so grant the
                    // fabric a fresh window instead of declaring a stall
                    // while frames are waiting to be replayed.
                    last_progress = now;
                    continue;
                }
                let stalled: Vec<usize> = (0..locals)
                    .filter(|&i| !reported[i] && now[i] == last_progress[i])
                    .map(|i| world[i])
                    .collect();
                if stalled.len() == remaining {
                    eprintln!("{}", stall_message(&stalled, diag));
                    let peer_down = diag.health.error();
                    for rank in stalled {
                        results[local_of[&rank]] = match &peer_down {
                            Some(SmiError::PeerDisconnected { rank: down }) => {
                                Err(SmiError::PeerDisconnected { rank: *down })
                            }
                            _ => Err(SmiError::Stalled { rank }),
                        };
                    }
                    break;
                }
                last_progress = now;
            }
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
        }
    }
    on_complete();
    stop.store(true, Ordering::SeqCst);
    let worker_stats = executor.join();
    GroupOutcome {
        results: world.into_iter().zip(results).collect(),
        threads_spawned,
        reconnects_healed: diag.health.healed(),
        worker_stats,
    }
}

/// SPMD variant of [`run_mpmd_tasks`]: one factory closure, cloned per rank.
pub fn run_spmd_tasks<F>(
    topo: &Topology,
    meta: ProgramMeta,
    factory: F,
    params: RuntimeParams,
) -> Result<RunReport<Result<(), SmiError>>, LaunchError>
where
    F: Fn(SmiCtx) -> Result<Box<dyn RankTask>, SmiError> + Send + Sync + Clone + 'static,
{
    let metas = vec![meta; topo.num_ranks()];
    let factories: Vec<TaskFactory> = (0..topo.num_ranks())
        .map(|_| {
            let f = factory.clone();
            Box::new(move |ctx: SmiCtx| f(ctx)) as TaskFactory
        })
        .collect();
    run_mpmd_tasks(topo, metas, factories, params)
}

// Silence an unused-import warning when the OpKind re-export is only used in
// doc examples.
#[allow(unused_imports)]
use OpKind as _OpKindUsed;

#[cfg(test)]
mod tests {
    use super::{stall_message, FabricDiag};
    use crate::transport::socket::{FabricHealth, PeerDown, PeerDownKind, ReconnectInfo};
    use std::collections::HashMap;

    #[test]
    fn stall_message_names_backend() {
        let diag = FabricDiag::default();
        let msg = stall_message(&[0, 2], &diag);
        assert!(msg.contains("rank(s) [0, 2]"), "{msg}");
        assert!(msg.contains("backend=inmem"), "{msg}");
        assert!(!msg.contains("remote peers"), "{msg}");
    }

    #[test]
    fn stall_message_lists_remote_peer_addresses() {
        let mut remote = HashMap::new();
        remote.insert(2, (1, "uds:///tmp/peer.sock".to_string()));
        remote.insert(3, (1, "uds:///tmp/peer.sock".to_string()));
        let diag = FabricDiag {
            backend: "uds",
            health: FabricHealth::default(),
            remote,
        };
        let msg = stall_message(&[0], &diag);
        assert!(msg.contains("backend=uds"), "{msg}");
        assert!(
            msg.contains("rank 2 (process 1, uds:///tmp/peer.sock)"),
            "{msg}"
        );
        assert!(msg.contains("rank 3 (process 1"), "{msg}");
    }

    #[test]
    fn stall_message_prefers_peer_down_details() {
        let health = FabricHealth::default();
        health.mark_down(PeerDown {
            rank: 2,
            process: 1,
            backend: "tcp",
            addr: "tcp://127.0.0.1:4444".to_string(),
            detail: "connection reset by peer".to_string(),
            kind: PeerDownKind::Link,
        });
        let mut remote = HashMap::new();
        remote.insert(2, (1, "tcp://127.0.0.1:4444".to_string()));
        let diag = FabricDiag {
            backend: "tcp",
            health,
            remote,
        };
        let msg = stall_message(&[0, 1], &diag);
        assert!(
            msg.contains("peer rank 2 is down (process 1, tcp tcp://127.0.0.1:4444)"),
            "{msg}"
        );
        assert!(msg.contains("connection reset by peer"), "{msg}");
        assert!(!msg.contains("remote peers:"), "{msg}");
    }

    #[test]
    fn stall_message_reports_reconnect_in_flight() {
        let health = FabricHealth::default();
        health.mark_reconnecting(ReconnectInfo {
            rank: 2,
            process: 1,
            attempt: 3,
            detail: "broken pipe".to_string(),
        });
        let mut remote = HashMap::new();
        remote.insert(2, (1, "tcp://127.0.0.1:4444".to_string()));
        let diag = FabricDiag {
            backend: "tcp",
            health,
            remote,
        };
        let msg = stall_message(&[0], &diag);
        assert!(msg.contains("mid-stream reconnect in flight"), "{msg}");
        assert!(
            msg.contains("process 1 hosting rank 2 (attempt 3: broken pipe)"),
            "{msg}"
        );
        assert!(!msg.contains("remote peers:"), "{msg}");
    }
}
