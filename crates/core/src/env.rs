//! The cluster environment: launching SPMD/MPMD programs over the sharded
//! transport.
//!
//! Mirrors the paper's workflow (Fig. 8): the op metadata (what the Clang
//! pass would extract) plus the topology produce the communication design
//! and routing tables; the "host program" uploads them, starts the
//! transport, runs one application per rank, and tears everything down.
//! That workflow exists once: `run_group` runs one *group* — the ranks one
//! process hosts — from wiring to teardown, and `launch` runs a cluster of
//! N groups and merges their outcomes into the one [`RunReport`]. Without a
//! [`ProcessPlan`] (or with an `"inmem"` one) N is 1 and the group runs on
//! the calling thread; a plan with sockets gets a thread per group and real
//! sockets between them; `smi-launch` children, one group per OS process,
//! call `run_group` themselves. Every public launcher — [`run_mpmd`],
//! [`run_spmd`], [`run_mpmd_tasks`], [`run_spmd_tasks`] here, `run_split_*`
//! in [`crate::proc`] — forwards to `launch`, so where a rank is placed
//! never changes how it is run. What they choose between is the kind of
//! rank body (`Bodies`), and a panic in one reaches the caller from both:
//!
//! * **Thread-per-rank** (`run_mpmd`/`run_spmd`): each rank program is an
//!   arbitrary blocking closure on its own OS thread. The transport (all
//!   CKS/CKR state machines) runs on the sharded executor — a fixed pool of
//!   worker threads — instead of one thread per CK kernel, so the thread
//!   bill is `ranks + workers` rather than `ranks + 4·ranks`.
//! * **Cooperative tasks** (`run_mpmd_tasks`/`run_spmd_tasks`): rank
//!   programs are poll-mode state machines (like the paper's hardware
//!   kernels) scheduled on the *same* worker pool as the transport. A
//!   64-rank cluster then runs on `workers` threads total — this is the
//!   execution model that scales past the OS thread budget. Tasks must only
//!   use the non-blocking channel APIs ([`crate::SendChannel::try_push_slice`],
//!   [`crate::RecvChannel::try_pop_slice`], the collective `try_*` forms) and
//!   open collectives with the rendezvous-free `open_*_channel_poll`
//!   variants.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smi_codegen::{ClusterDesign, CodegenError, ProgramMeta};
use smi_topology::{RoutingPlan, Topology, TopologyError};
use smi_wire::reduce::SmiNumeric;
use smi_wire::SmiType;

use crate::channel::{Protocol, RecvChannel, SendChannel};
use crate::collectives::topology::{HopTable, HopTrees, WireEdges};
use crate::collectives::{
    BcastChannel, CollectiveScheme, GatherChannel, ReduceChannel, ScatterChannel,
};
use crate::comm::{Communicator, SplitBoard};
use crate::endpoint::{new_table, EndpointTableHandle};
use crate::params::RuntimeParams;
use crate::proc::{
    build_group_fabric, eprint_line, proc_of, setup_groups, GroupFabric, GroupWiring, ProcessPlan,
    TransportBackend,
};
pub use crate::transport::executor::WorkerStats;
use crate::transport::executor::{back_off, Pollable, ShardedExecutor, Step};
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
    /// Where bcast/reduce trees come from under `Tree`.
    trees: HopTrees,
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

    /// This rank's edges in the tree a bcast or reduce rooted at `root` (a
    /// communicator rank) streams along: the star under `Linear`, the hop
    /// tree under `Tree`.
    fn stream_edges(&self, comm: &Communicator, root: usize) -> Result<WireEdges, SmiError> {
        comm.world_rank(root)?;
        if self.params.collective_scheme == CollectiveScheme::Linear {
            return WireEdges::star(comm, root);
        }
        self.trees.edges(comm, root)
    }

    /// The wire ranks of this rank and of point-to-point peer `peer` (a
    /// world rank, checked against the cluster size).
    fn wire_ranks(&self, peer: usize) -> Result<(u8, u8), SmiError> {
        let my = smi_wire::header::rank_to_wire(self.rank)?;
        if peer >= self.num_ranks {
            return Err(SmiError::BadRank {
                rank: peer,
                size: self.num_ranks,
            });
        }
        Ok((my, smi_wire::header::rank_to_wire(peer)?))
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
        let (my, dstw) = self.wire_ranks(dst)?;
        SendChannel::open(
            self.table.clone(),
            my,
            dstw,
            port,
            count,
            protocol,
            &self.params,
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
        let (my, srcw) = self.wire_ranks(src)?;
        RecvChannel::open(
            self.table.clone(),
            my,
            srcw,
            port,
            count,
            protocol,
            &self.params,
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
        let edges = self.stream_edges(comm, root)?;
        BcastChannel::open(self.table.clone(), comm, count, port, edges, &self.params)
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
        let edges = self.stream_edges(comm, root)?;
        ReduceChannel::open(self.table.clone(), comm, count, port, edges, &self.params)
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
        ScatterChannel::open(self.table.clone(), comm, count, port, root, &self.params)
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
        GatherChannel::open(self.table.clone(), comm, count, port, root, &self.params)
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
/// (socket-backed or otherwise) into the cross-rank edges; the routing
/// plan's hop matrix comes back with it. Every process of
/// a split fabric must run this with the *same* topology and metas so the
/// cluster design — and therefore the edge set — agrees on both sides of
/// every socket.
fn prepare_with(
    topo: &Topology,
    metas: &[ProgramMeta],
    params: &RuntimeParams,
    stats: TransportStats,
    links: FabricLinks,
) -> Result<(TransportHandle, HopTable), LaunchError> {
    assert_eq!(metas.len(), topo.num_ranks(), "one ProgramMeta per rank");
    let design = ClusterDesign::mpmd(metas, topo).map_err(LaunchError::Codegen)?;
    design
        .validate_collectives()
        .map_err(LaunchError::Codegen)?;
    let plan = RoutingPlan::compute(topo).map_err(LaunchError::Topology)?;
    let transport = build_transport(topo, &plan, &design, params, stats, links);
    // The next-hop tables live on in the wired kernels; of the plan only the
    // hop matrix is kept, for the collective trees.
    Ok((transport, Arc::new(plan.into_hops())))
}

/// Where this process's ranks live relative to the rest of the cluster —
/// what the stall watchdog and error escalation need to say something
/// useful when the other side of a socket stops talking.
pub(crate) struct FabricDiag {
    /// Transport backend carrying cross-process edges (`"inmem"`, `"uds"`,
    /// `"tcp"`).
    pub backend: &'static str,
    /// Peer-liveness board shared with the socket pumps and the endpoints.
    pub health: FabricHealth,
    /// World rank → (process index, peer address) for every rank hosted by
    /// another OS process. Empty when the whole fabric is in-memory.
    pub remote: HashMap<usize, (usize, String)>,
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
            pd.peer.rank, pd.peer.process, pd.peer.backend, pd.peer.addr, pd.detail
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

/// What a rank task yields.
type TaskResult = Result<(), SmiError>;

/// What a task item tells its group's watchdog: the rank's index within
/// the group and its outcome — `None` from an item an unwinding worker
/// drops.
type TaskEvent = (usize, Option<TaskResult>);

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
    /// Index of `rank` among the group's ranks, the key of its events.
    slot: usize,
    state: TaskState,
    done_tx: crossbeam::channel::Sender<TaskEvent>,
    /// Bumped on every poll that made progress — the per-rank liveness
    /// signal the stall watchdog reads, so one livelocked rank cannot hide
    /// behind other ranks' (or the transport's) progress.
    progress: Arc<AtomicU64>,
}

impl Pollable for RankTaskItem {
    fn home_rank(&self) -> Option<usize> {
        Some(self.rank)
    }

    fn poll(&mut self) -> Step {
        let state = std::mem::replace(&mut self.state, TaskState::Finished);
        let outcome = match state {
            TaskState::Init { ctx, factory } => match factory(*ctx) {
                Ok(task) => {
                    self.state = TaskState::Running(task);
                    self.progress.fetch_add(1, Ordering::Relaxed);
                    return Step::Progress;
                }
                Err(e) => Err(e),
            },
            // A finished or failed task is dropped with this arm (returning
            // its endpoint resources) before its outcome is reported.
            TaskState::Running(mut task) => match task.poll() {
                Ok(TaskStatus::Progress) => {
                    self.state = TaskState::Running(task);
                    self.progress.fetch_add(1, Ordering::Relaxed);
                    return Step::Progress;
                }
                Ok(TaskStatus::Pending) => {
                    self.state = TaskState::Running(task);
                    return Step::Idle;
                }
                Ok(TaskStatus::Done) => Ok(()),
                Err(e) => Err(e),
            },
            TaskState::Finished => return Step::Done,
        };
        let _ = self.done_tx.send((self.slot, Some(outcome)));
        Step::Done
    }
}

/// A panicking factory or task unwinds the worker polling it, which drops
/// every item that worker holds: tell the watchdog at once instead of
/// letting it sit out a `blocking_timeout` window on ranks that will never
/// report. At teardown nothing is panicking and nothing is sent.
impl Drop for RankTaskItem {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.done_tx.send((self.slot, None));
        }
    }
}

/// A blocking rank program: an arbitrary closure on its own OS thread.
type RankProgram<T> = Box<dyn FnOnce(SmiCtx) -> T + Send>;

/// A caught panic payload on its way to `resume_unwind`.
type Panic = Box<dyn std::any::Any + Send>;

/// The rank programs of a launch — or of one group of it — in world-rank
/// order: the one thing the two execution models differ in.
pub(crate) enum Bodies<T> {
    /// Thread-per-rank: each program blocks on its own OS thread.
    Threads(Vec<RankProgram<T>>),
    /// Cooperative tasks on the executor's workers, beside the machines.
    /// The `fn` is the identity: it witnesses `T = Result<(), SmiError>`.
    Tasks(Vec<TaskFactory>, fn(TaskResult) -> T),
}

impl<T> Bodies<T> {
    fn len(&self) -> usize {
        match self {
            Bodies::Threads(programs) => programs.len(),
            Bodies::Tasks(factories, _) => factories.len(),
        }
    }

    /// One closure, cloned per rank ("only one instance of the code is
    /// generated", §4.5).
    pub fn spmd_threads<F>(n: usize, program: F) -> Self
    where
        F: Fn(SmiCtx) -> T + Send + Clone + 'static,
    {
        let clone = |_| Box::new(program.clone()) as RankProgram<T>;
        Bodies::Threads((0..n).map(clone).collect())
    }

    /// Deal the bodies to their groups, each group's in world-rank order.
    fn split(self, procs: &[Vec<usize>]) -> Vec<Bodies<T>> {
        fn deal<B>(bodies: Vec<B>, procs: &[Vec<usize>]) -> impl Iterator<Item = Vec<B>> {
            let owner = proc_of(procs, bodies.len());
            let mut dealt: Vec<Vec<B>> = procs.iter().map(|_| Vec::new()).collect();
            for (body, g) in bodies.into_iter().zip(owner) {
                dealt[g].push(body);
            }
            dealt.into_iter()
        }
        match self {
            Bodies::Threads(programs) => deal(programs, procs).map(Bodies::Threads).collect(),
            Bodies::Tasks(factories, wrap) => {
                let tasks = |f| Bodies::Tasks(f, wrap);
                deal(factories, procs).map(tasks).collect()
            }
        }
    }
}

impl Bodies<TaskResult> {
    /// One task per rank; the only place the identity witness is written.
    pub fn tasks(factories: Vec<TaskFactory>) -> Self {
        Bodies::Tasks(factories, std::convert::identity)
    }

    /// One factory closure, cloned per rank.
    pub fn spmd_tasks<F>(n: usize, factory: F) -> Self
    where
        F: Fn(SmiCtx) -> Result<Box<dyn RankTask>, SmiError> + Send + Clone + 'static,
    {
        let clone = |_| Box::new(factory.clone()) as TaskFactory;
        Self::tasks((0..n).map(clone).collect())
    }
}

/// The watchdog's view of a group's rank tasks: their event channel and
/// per-rank progress counters, in group order.
struct TaskWatch {
    events: crossbeam::channel::Receiver<TaskEvent>,
    progress: Vec<Arc<AtomicU64>>,
}

/// How a started group is awaited: rank threads are joined, rank tasks
/// watched.
enum Started<T> {
    Threads(Vec<std::thread::JoinHandle<T>>),
    Tasks(TaskWatch, fn(TaskResult) -> T),
}

/// Run one group's share of the cluster — the whole of it when `wiring` is
/// `None` — from wiring to teardown: build the group's fabric and
/// transport, start the executor on the machines (CK kernels, socket
/// pumps and, in task mode, the rank tasks), run the rank bodies (aligned
/// with the group's ranks in world-rank order) to completion, and only
/// tear the executor down after `on_complete` returns and the group's
/// streams have ended.
///
/// `on_complete` is the fabric-wide completion barrier: when the cluster
/// spans groups it must not return until *every* rank of *every* group
/// finished. A rank finishing proves all data it needed arrived, so once
/// all ranks everywhere are done, anything still in flight is protocol
/// residue. The group then ends its streams in-band
/// ([`FabricHealth::finish`](crate::transport::socket::FabricHealth::finish)):
/// every pump writes a fin and reads on to its peer's, so neither side reads
/// the other's close as a fault. The executor runs until every pump has
/// ended, at most `blocking_timeout`. A one-group run passes a no-op and
/// has no pumps to wait for. The barrier is waited on every way out — a failed
/// preparation, a panicking rank thread, a worker a panicking task or
/// machine unwound — because peers must not hang on a barrier this group
/// abandoned; a panic is resumed after teardown, whichever mode raised it.
pub(crate) fn run_group<T: Send + 'static>(
    topo: &Topology,
    metas: &[ProgramMeta],
    params: &RuntimeParams,
    stats: &TransportStats,
    wiring: Option<GroupWiring<'_>>,
    bodies: Bodies<T>,
    on_complete: impl FnOnce(),
) -> Result<GroupOutcome<T>, LaunchError> {
    let num_ranks = topo.num_ranks();
    let prep = (|| {
        let fabric = match wiring {
            Some(wiring) => {
                let idx = wiring.idx;
                build_group_fabric(topo, wiring, params, stats)
                    .map_err(|e| LaunchError::Plan(format!("fabric for process {idx}: {e}")))?
            }
            None => GroupFabric::all_local(num_ranks),
        };
        let (mut transport, hops) = prepare_with(topo, metas, params, stats.clone(), fabric.links)?;
        transport.machines.extend(fabric.pumps);
        Ok((transport, hops, fabric.diag))
    })();
    let (transport, hops, diag) = match prep {
        Ok(v) => v,
        Err(e) => {
            on_complete();
            return Err(e);
        }
    };
    assert_eq!(transport.tables.len(), bodies.len(), "one body per rank");

    let stop = Arc::new(AtomicBool::new(false));
    let board = Arc::new(SplitBoard::default());
    let world: Vec<usize> = transport.tables.iter().map(|(r, _)| *r).collect();
    let ctxs = transport.tables.into_iter().map(|(rank, table)| {
        let handle = new_table();
        *handle.lock() = table;
        let (board, params) = (board.clone(), params.clone());
        let ctx = SmiCtx {
            rank,
            num_ranks,
            table: handle,
            board,
            params,
            trees: HopTrees::new(hops.clone()),
        };
        (rank, ctx)
    });
    let mut items = transport.machines;
    let started = match bodies {
        Bodies::Threads(programs) => Started::Threads(
            ctxs.zip(programs)
                .map(|((rank, ctx), program)| {
                    std::thread::Builder::new()
                        .name(format!("smi-rank-{rank}"))
                        .spawn(move || program(ctx))
                        .expect("spawn rank thread")
                })
                .collect(),
        ),
        Bodies::Tasks(factories, wrap) => {
            let (done_tx, events) = crossbeam::channel::unbounded();
            let progress: Vec<Arc<AtomicU64>> = world.iter().map(|_| Arc::default()).collect();
            for (slot, ((rank, ctx), factory)) in ctxs.zip(factories).enumerate() {
                items.push(Box::new(RankTaskItem {
                    rank,
                    slot,
                    state: TaskState::Init {
                        ctx: Box::new(ctx),
                        factory,
                    },
                    done_tx: done_tx.clone(),
                    progress: progress[slot].clone(),
                }));
            }
            Started::Tasks(TaskWatch { events, progress }, wrap)
        }
    };
    let executor = ShardedExecutor::spawn(items, params.resolved_workers(), stop.clone());
    let mut threads_spawned = executor.num_workers();

    let mut rank_panic: Option<Panic> = None;
    let results: Vec<T> = match started {
        Started::Threads(handles) => {
            threads_spawned += handles.len();
            let join = |h: std::thread::JoinHandle<T>| match h.join() {
                Ok(v) => Some(v),
                Err(p) => {
                    // Release everything so remaining joins cannot hang forever.
                    stop.store(true, Ordering::SeqCst);
                    rank_panic.get_or_insert(p);
                    None
                }
            };
            handles.into_iter().filter_map(join).collect()
        }
        Started::Tasks(watch, wrap) => {
            let results = await_tasks(&watch, &world, params, &diag, &stop);
            results.into_iter().map(wrap).collect()
        }
    };
    on_complete();
    // End the streams in-band, and keep the workers awake for the pumps
    // until they are gone (at most a stall window; a stopped executor
    // polls nothing).
    diag.health.finish();
    let (deadline, mut idle) = (Instant::now() + params.blocking_timeout, 0);
    while diag.health.streams_open() > 0
        && !stop.load(Ordering::SeqCst)
        && Instant::now() < deadline
    {
        executor.kick();
        idle += 1;
        back_off(idle);
    }
    stop.store(true, Ordering::SeqCst);
    match (rank_panic, executor.join()) {
        (Some(p), _) | (None, Err(p)) => std::panic::resume_unwind(p),
        (None, Ok(worker_stats)) => Ok(GroupOutcome {
            results: world.into_iter().zip(results).collect(),
            threads_spawned,
            reconnects_healed: diag.health.healed(),
            worker_stats,
        }),
    }
}

/// Collect the outcome of every rank task of a group, in group order.
///
/// Doubles as the stall watchdog: the blocking plane bounds every stalled
/// operation by `blocking_timeout`; the cooperative plane's analogue is "no
/// unfinished rank task made progress for a whole timeout window" — e.g. a
/// failed rank leaving its peer polling Pending forever. Progress is
/// tracked *per rank* (not executor-wide), so a livelocked rank cannot be
/// masked by transport churn or other ranks' activity, and the stall report
/// names exactly the ranks that stopped moving. The run is only ended when
/// every unfinished local rank stalled — a single rank legitimately idle
/// while its peers stream (e.g. awaiting a serialized gather grant) does
/// not trip it. When the fabric spans processes and a peer process is
/// known dead, the stall is reported as [`SmiError::PeerDisconnected`]
/// rather than a generic [`SmiError::Stalled`].
///
/// The window is waited out in short slices, leaving as soon as `stop` is
/// up: a worker that a panicking machine unwound raises it, and may hold no
/// rank task whose drop would say so on the event channel.
fn await_tasks(
    watch: &TaskWatch,
    world: &[usize],
    params: &RuntimeParams,
    diag: &FabricDiag,
    stop: &AtomicBool,
) -> Vec<TaskResult> {
    const SLICE: Duration = Duration::from_millis(20);
    let TaskWatch { events, progress } = watch;
    let locals = world.len();
    let mut results: Vec<TaskResult> = (0..locals)
        .map(|_| Err(SmiError::TransportClosed))
        .collect();
    let mut reported = vec![false; locals];
    let mut remaining = locals;
    let snapshot = || -> Vec<u64> { progress.iter().map(|c| c.load(Ordering::Relaxed)).collect() };
    let mut last_progress = snapshot();
    let mut window_end = Instant::now() + params.blocking_timeout;
    while remaining > 0 && !stop.load(Ordering::SeqCst) {
        let left = window_end.saturating_duration_since(Instant::now());
        match events.recv_timeout(left.min(SLICE)) {
            Ok((i, Some(res))) => {
                results[i] = res;
                reported[i] = true;
                remaining -= 1;
                window_end = Instant::now() + params.blocking_timeout;
            }
            // A worker is unwinding: the run is over, and joining the
            // executor hands the panic back.
            Ok((_, None)) => break,
            Err(crossbeam::channel::RecvTimeoutError::Timeout) if !left.is_zero() => {}
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                window_end = Instant::now() + params.blocking_timeout;
                let now = snapshot();
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
                    .collect();
                if stalled.len() == remaining {
                    let ranks: Vec<usize> = stalled.iter().map(|&i| world[i]).collect();
                    eprint_line(&stall_message(&ranks, diag));
                    let peer_down = diag.health.error();
                    for i in stalled {
                        results[i] = match &peer_down {
                            Some(SmiError::PeerDisconnected { rank: down }) => {
                                Err(SmiError::PeerDisconnected { rank: *down })
                            }
                            _ => Err(SmiError::Stalled { rank: world[i] }),
                        };
                    }
                    break;
                }
                last_progress = now;
            }
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
        }
    }
    results
}

/// The launch every public launcher forwards to: `bodies` (one per rank of
/// `topo`) run over `plan`'s partition, or as one group when there is no
/// plan or the plan's backend is `"inmem"`. One group runs on the calling
/// thread with a no-op completion barrier; a plan with sockets gets its
/// mesh established up front and one `smi-proc-<idx>` thread per group,
/// each in [`run_group`], with a [`std::sync::Barrier`] over the groups.
pub(crate) fn launch<T: Send + 'static>(
    topo: &Topology,
    plan: Option<&ProcessPlan>,
    metas: Vec<ProgramMeta>,
    bodies: Bodies<T>,
    params: RuntimeParams,
) -> Result<RunReport<T>, LaunchError> {
    let num_ranks = topo.num_ranks();
    assert_eq!(bodies.len(), num_ranks, "one program per rank");
    let stats = TransportStats::default();
    let (metas, params, stats) = (&metas[..], &params, &stats);
    let backend = plan.map(ProcessPlan::parse_backend).transpose()?;
    let outcomes = match (plan, backend) {
        (Some(plan), Some(backend)) if backend != TransportBackend::InMem => {
            let procs = plan.rank_sets();
            let wirings = setup_groups(topo, &procs, backend, plan.faults.as_ref())?;
            let barrier = std::sync::Barrier::new(procs.len());
            let groups = wirings.into_iter().zip(bodies.split(&procs));
            std::thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .map(|(wiring, bodies)| {
                        let wait = || {
                            barrier.wait();
                        };
                        std::thread::Builder::new()
                            .name(format!("smi-proc-{}", wiring.idx))
                            .spawn_scoped(scope, move || {
                                run_group(topo, metas, params, stats, Some(wiring), bodies, wait)
                            })
                            .expect("spawn group thread")
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            })
        }
        _ => {
            let run = run_group(topo, metas, params, stats, None, bodies, || {});
            vec![Ok(run)]
        }
    };
    merge_outcomes(outcomes, num_ranks, stats)
}

/// Merge the groups' world-rank-tagged outcomes into the run's one
/// [`RunReport`]. A panic a group resumed propagates — the first one wins,
/// after every group has been joined — and so does the first launch error.
fn merge_outcomes<T>(
    outcomes: Vec<std::thread::Result<Result<GroupOutcome<T>, LaunchError>>>,
    num_ranks: usize,
    stats: &TransportStats,
) -> Result<RunReport<T>, LaunchError> {
    let mut slots: Vec<Option<T>> = (0..num_ranks).map(|_| None).collect();
    let mut threads_spawned = 0usize;
    let mut reconnects_healed = 0usize;
    let mut worker_stats = Vec::new();
    let mut err: Option<LaunchError> = None;
    let mut panic: Option<Panic> = None;
    for outcome in outcomes {
        match outcome {
            Ok(Ok(outcome)) => {
                threads_spawned += outcome.threads_spawned;
                reconnects_healed += outcome.reconnects_healed;
                worker_stats.extend(outcome.worker_stats);
                for (rank, v) in outcome.results {
                    slots[rank] = Some(v);
                }
            }
            Ok(Err(e)) => {
                err.get_or_insert(e);
            }
            Err(p) => {
                panic.get_or_insert(p);
            }
        }
    }
    if let Some(p) = panic {
        std::panic::resume_unwind(p);
    }
    if let Some(e) = err {
        return Err(e);
    }
    Ok(RunReport {
        results: slots
            .into_iter()
            .map(|s| s.expect("one result per rank"))
            .collect(),
        transport: stats.snapshot(),
        payload_copies: stats.payload_copies.count(),
        wire_stats: stats.wire.snapshot(),
        threads_spawned,
        reconnects_healed,
        worker_stats,
    })
}

/// Run an MPMD program: one closure per rank, each with its own op metadata.
pub fn run_mpmd<T: Send + 'static>(
    topo: &Topology,
    metas: Vec<ProgramMeta>,
    programs: Vec<Box<dyn FnOnce(SmiCtx) -> T + Send>>,
    params: RuntimeParams,
) -> Result<RunReport<T>, LaunchError> {
    launch(topo, None, metas, Bodies::Threads(programs), params)
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
    let n = topo.num_ranks();
    let bodies = Bodies::spmd_threads(n, program);
    launch(topo, None, vec![meta; n], bodies, params)
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
/// A panicking task is re-raised to the caller, as a panicking closure of
/// [`run_mpmd`] is.
pub fn run_mpmd_tasks(
    topo: &Topology,
    metas: Vec<ProgramMeta>,
    factories: Vec<TaskFactory>,
    params: RuntimeParams,
) -> Result<RunReport<Result<(), SmiError>>, LaunchError> {
    launch(topo, None, metas, Bodies::tasks(factories), params)
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
    let n = topo.num_ranks();
    let bodies = Bodies::spmd_tasks(n, factory);
    launch(topo, None, vec![meta; n], bodies, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::socket::{FabricHealth, PeerDown, PeerDownKind, PeerInfo, ReconnectInfo};

    /// The unit-level twin of `rank_task_panic_propagates_like_a_rank_thread_panic`
    /// (`tests/split.rs`): a *machine* panics on a worker that holds no rank
    /// task, so nothing reaches the event channel. The watchdog must leave
    /// on the stop flag the unwinding worker raises — well inside the
    /// default 10 s `blocking_timeout` — and the join hand the payload over.
    #[test]
    fn machine_panic_ends_the_wait_at_once() {
        struct Bomb;
        impl Pollable for Bomb {
            fn poll(&mut self) -> Step {
                panic!("machine blew up");
            }
        }
        struct Quiet;
        impl Pollable for Quiet {
            fn poll(&mut self) -> Step {
                Step::Idle
            }
        }
        for workers in [1, 2] {
            let stop = Arc::new(AtomicBool::new(false));
            // One rank task that never reports: its sender stays alive here.
            let (_done_tx, events) = crossbeam::channel::unbounded::<TaskEvent>();
            let progress = vec![Arc::default()];
            let watch = TaskWatch { events, progress };
            let diag = crate::proc::GroupFabric::all_local(1).diag;
            let items: Vec<Box<dyn Pollable>> = vec![Box::new(Quiet), Box::new(Bomb)];
            let t0 = Instant::now();
            let executor = ShardedExecutor::spawn(items, workers, stop.clone());
            let results = await_tasks(&watch, &[0], &RuntimeParams::default(), &diag, &stop);
            let took = t0.elapsed();
            assert!(
                took < Duration::from_secs(2),
                "{workers} worker(s): {took:?}"
            );
            assert!(results[0].is_err());
            let payload = executor.join().expect_err("the worker unwound");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"machine blew up"));
        }
    }

    #[test]
    fn stall_message_names_backend() {
        let diag = crate::proc::GroupFabric::all_local(3).diag;
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
            peer: PeerInfo {
                rank: 2,
                process: 1,
                backend: "tcp",
                addr: "tcp://127.0.0.1:4444".to_string(),
            },
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
