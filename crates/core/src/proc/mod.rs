//! Multi-process fabrics: one SMI cluster split across OS processes.
//!
//! The paper's cluster is a set of FPGAs joined by serial cables; this
//! reproduction's default fabric is a set of in-memory FIFOs inside one
//! process. This module generalizes the fabric to span OS processes: the
//! topology edges that cross a process boundary are carried by byte
//! streams — Unix-domain sockets or TCP — multiplexing length-prefixed
//! [`NetworkPacket`](smi_wire::NetworkPacket) bursts, while everything
//! within a process stays on the zero-copy in-memory fast path.
//!
//! This module owns the plan and the sockets, not a runtime: both entry
//! points hand each group's streams to the launch engine in [`crate::env`].
//!
//! * [`run_split_mpmd`]/[`run_split_spmd`]/[`run_split_mpmd_tasks`]: run
//!   the whole "cluster of processes" inside the calling process, one
//!   thread group per planned process, with real sockets between groups.
//!   Deterministic — this is what the cross-backend equivalence tests and
//!   benchmarks use.
//! * The `smi-launch` binary (see [`launch_cli`]): spawns one real OS
//!   process per plan entry, bootstraps the socket mesh over TCP, runs a
//!   collective workload, and reaps children on failure.
//!
//! A [`ProcessPlan`] names the backend, the topology, and which world
//! ranks each process hosts. Every process builds only its own ranks
//! (endpoints + CK machines) from the *same* plan, so both sides of every
//! socket agree on the edge set by construction.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};
use smi_codegen::ProgramMeta;
use smi_topology::{Topology, TopologySpec};

use crate::env::{self, Bodies, FabricDiag, LaunchError, RunReport, SmiCtx, TaskFactory};
use crate::params::RuntimeParams;
use crate::transport::executor::Pollable;
use crate::transport::faults::FaultPlan;
use crate::transport::socket::{
    fresh_session_id, ConnConfig, FabricHealth, PeerInfo, ReconnectHub, ReconnectRole, Redial,
    Session, SocketConn, SocketListener, SocketStream,
};
use crate::transport::wiring::FabricLinks;
use crate::transport::TransportStats;
use crate::SmiError;

mod launch;

pub use launch::launch_cli;

/// Print `line` and a newline to stderr in one `write(2)`. The processes of
/// a launch share one stderr, and `eprintln!` writes a line in pieces that
/// a sibling's line can split.
pub(crate) fn eprint_line(line: &str) {
    let _ = io::Write::write_all(&mut io::stderr().lock(), format!("{line}\n").as_bytes());
}

/// Which carrier moves bursts between processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportBackend {
    /// Single process, in-memory FIFOs only (the split runners run such a
    /// plan as one group; `smi-launch` rejects it).
    InMem,
    /// Unix-domain sockets: same-host multi-process, the low-latency
    /// default.
    Uds,
    /// TCP over loopback (or, with `smi-launch`-style bootstrap, any
    /// reachable address).
    Tcp,
}

impl TransportBackend {
    /// The name used in plans, benchmarks and diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            TransportBackend::InMem => "inmem",
            TransportBackend::Uds => "uds",
            TransportBackend::Tcp => "tcp",
        }
    }

    /// Inverse of [`TransportBackend::name`].
    pub fn parse(s: &str) -> Option<TransportBackend> {
        match s {
            "inmem" => Some(TransportBackend::InMem),
            "uds" => Some(TransportBackend::Uds),
            "tcp" => Some(TransportBackend::Tcp),
            _ => None,
        }
    }
}

impl std::fmt::Display for TransportBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One process's share of the cluster.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProcessSpec {
    /// World ranks this process hosts.
    pub ranks: Vec<usize>,
}

/// A hostfile-style description of how one cluster maps onto OS
/// processes: the transport backend, the FPGA topology (same JSON schema
/// as [`TopologySpec`]), and the rank set of each process.
///
/// ```json
/// {
///   "backend": "uds",
///   "topology": {
///     "num_ranks": 4,
///     "ports_per_rank": 4,
///     "connections": [["0:1","1:0"], ["1:1","2:0"], ["2:1","3:0"], ["3:1","0:0"]]
///   },
///   "processes": [ { "ranks": [0, 1] }, { "ranks": [2, 3] } ]
/// }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProcessPlan {
    /// Backend name: `"inmem"`, `"uds"` or `"tcp"`.
    pub backend: String,
    /// The cluster topology (what the paper's JSON file describes).
    pub topology: TopologySpec,
    /// The rank partition; together the processes must cover every world
    /// rank exactly once.
    pub processes: Vec<ProcessSpec>,
    /// Optional deterministic fault-injection plan
    /// ([`crate::transport::faults::FaultPlan`]): per-directed-process-pair
    /// drop/duplicate/delay/sever schedules applied to outbound frames at
    /// the wire level. Omitted (or `null`) means a clean fabric.
    #[serde(default)]
    pub faults: Option<FaultPlan>,
}

impl ProcessPlan {
    /// A contiguous block partition of `topo` over `nproc` processes.
    pub fn split(topo: &Topology, backend: TransportBackend, nproc: usize) -> ProcessPlan {
        assert!(nproc >= 1, "at least one process");
        let n = topo.num_ranks();
        assert!(nproc <= n, "more processes than ranks");
        let base = n / nproc;
        let extra = n % nproc;
        let mut next = 0usize;
        let processes = (0..nproc)
            .map(|p| {
                let len = base + usize::from(p < extra);
                let ranks = (next..next + len).collect();
                next += len;
                ProcessSpec { ranks }
            })
            .collect();
        ProcessPlan {
            backend: backend.name().to_string(),
            topology: TopologySpec::from_topology(topo),
            processes,
            faults: None,
        }
    }

    /// Parse a plan from its JSON description.
    pub fn from_json(json: &str) -> Result<ProcessPlan, LaunchError> {
        serde_json::from_str(json).map_err(|e| LaunchError::Plan(format!("JSON parse error: {e}")))
    }

    /// Serialize to the JSON description format.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("process plan serializes")
    }

    /// The parsed backend.
    pub fn parse_backend(&self) -> Result<TransportBackend, LaunchError> {
        TransportBackend::parse(&self.backend).ok_or_else(|| {
            LaunchError::Plan(format!(
                "unknown backend '{}' (expected inmem, uds or tcp)",
                self.backend
            ))
        })
    }

    /// Build the topology and check the processes partition its ranks.
    pub fn build_topology(&self) -> Result<Topology, LaunchError> {
        let topo = self.topology.build().map_err(LaunchError::Topology)?;
        let n = topo.num_ranks();
        if self.processes.is_empty() {
            return Err(LaunchError::Plan("no processes in plan".into()));
        }
        let mut owner = vec![None; n];
        for (p, spec) in self.processes.iter().enumerate() {
            if spec.ranks.is_empty() {
                return Err(LaunchError::Plan(format!("process {p} hosts no ranks")));
            }
            for &r in &spec.ranks {
                if r >= n {
                    return Err(LaunchError::Plan(format!(
                        "process {p} hosts rank {r} but the topology has {n} ranks"
                    )));
                }
                if let Some(q) = owner[r] {
                    return Err(LaunchError::Plan(format!(
                        "rank {r} hosted by both process {q} and process {p}"
                    )));
                }
                owner[r] = Some(p);
            }
        }
        if let Some(r) = owner.iter().position(|o| o.is_none()) {
            return Err(LaunchError::Plan(format!("rank {r} hosted by no process")));
        }
        Ok(topo)
    }

    /// The rank sets, indexed by process.
    pub fn rank_sets(&self) -> Vec<Vec<usize>> {
        self.processes.iter().map(|p| p.ranks.clone()).collect()
    }
}

/// rank → hosting process index.
pub(crate) fn proc_of(procs: &[Vec<usize>], n: usize) -> Vec<usize> {
    let mut owner = vec![usize::MAX; n];
    for (p, ranks) in procs.iter().enumerate() {
        for &r in ranks {
            owner[r] = p;
        }
    }
    owner
}

/// Unordered process pairs `(lo, hi)` joined by at least one topology edge.
pub(crate) fn crossing_pairs(topo: &Topology, procs: &[Vec<usize>]) -> Vec<(usize, usize)> {
    let owner = proc_of(procs, topo.num_ranks());
    let mut pairs: Vec<(usize, usize)> = topo
        .connections()
        .iter()
        .filter_map(|c| {
            let (pa, pb) = (owner[c.a.rank], owner[c.b.rank]);
            (pa != pb).then(|| (pa.min(pb), pa.max(pb)))
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Everything one process needs to join the fabric: the link halves for
/// its boundary edges, the socket pumps to register with its executor,
/// and the diagnostics map for its watchdog.
pub(crate) struct GroupFabric {
    pub links: FabricLinks,
    pub pumps: Vec<Box<dyn Pollable>>,
    pub diag: FabricDiag,
}

impl GroupFabric {
    /// The one-group fabric: all `n` ranks here, no sockets. The watchdog's
    /// diagnostics read the health board the endpoints were built with.
    pub fn all_local(n: usize) -> GroupFabric {
        let links = FabricLinks::all_local(n);
        let diag = FabricDiag {
            backend: TransportBackend::InMem.name(),
            health: links.health.clone(),
            remote: HashMap::new(),
        };
        GroupFabric {
            links,
            pumps: Vec::new(),
            diag,
        }
    }
}

/// Which side of an established process-pair stream this process is, for
/// mid-stream recovery purposes.
pub(crate) enum StreamRole {
    /// This process re-dials the peer's data listener after a fault.
    Dial {
        /// The peer listener's address.
        redial: Redial,
    },
    /// This process waits for the peer to re-dial its data listener, and
    /// accepts the re-dial (through its [`ReconnectHub`]) once it sees the
    /// fault itself.
    Accept,
}

/// One established, session-negotiated stream to a peer process.
pub(crate) struct PeerStream {
    /// Peer process index in the plan.
    pub proc: usize,
    /// The connected stream.
    pub stream: SocketStream,
    /// Session id both sides agreed on at hello time.
    pub session: u64,
    /// Recovery role of *this* side.
    pub role: StreamRole,
}

/// One group's share of a cluster that spans sockets — everything
/// [`build_group_fabric`] wires: where the group sits in the partition, its
/// established peer streams, the persistent data listener for mid-stream
/// recovery, and the faults to inject.
pub(crate) struct GroupWiring<'a> {
    /// The rank set of every group, indexed by process.
    pub procs: &'a [Vec<usize>],
    /// This group's index in `procs`.
    pub idx: usize,
    pub backend: TransportBackend,
    pub streams: Vec<PeerStream>,
    /// The listener the peer-dialed streams came in on, kept open (inside
    /// the group's [`ReconnectHub`]) so faulted peers can re-dial mid-run.
    /// `None` when no peer dials this process.
    pub listener: Option<SocketListener>,
    pub faults: Option<&'a FaultPlan>,
}

/// Byte budget of each connection's replay ring, which holds encoded,
/// not-yet-acknowledged frames for mid-stream replay. A full ring is
/// ordinary backpressure (sends report `Full`); a single frame larger than
/// the whole budget is [`crate::SmiError::ReplayOverflow`].
const REPLAY_BUDGET: usize = 4 << 20;

/// Wire one group's share of the fabric from its established streams, one
/// per peer process it shares a topology edge with. Each stream carries
/// every edge between the two processes, demuxed by the sender-side
/// endpoint stamped in the frame headers.
pub(crate) fn build_group_fabric(
    topo: &Topology,
    wiring: GroupWiring<'_>,
    params: &RuntimeParams,
    stats: &TransportStats,
) -> io::Result<GroupFabric> {
    let (procs, me, faults) = (wiring.procs, wiring.idx, wiring.faults);
    let n = topo.num_ranks();
    let owner = proc_of(procs, n);
    let local: Vec<bool> = (0..n).map(|r| owner[r] == me).collect();
    let health = FabricHealth::default();
    let mut ext_tx = HashMap::new();
    let mut ext_rx = HashMap::new();
    let mut pumps: Vec<Box<dyn Pollable>> = Vec::new();
    let mut peer_addr: HashMap<usize, String> = HashMap::new();
    let backend = wiring.backend;
    let hub = ReconnectHub::new(wiring.listener)?;

    for ps in wiring.streams {
        let peer = ps.proc;
        let addr = ps.stream.peer_label();
        peer_addr.insert(peer, addr.clone());
        // Directed boundary edges carried by this stream, as
        // (sender endpoint, direction) derived from the undirected cables.
        let mut recv_keys = Vec::new();
        let mut tx_keys = Vec::new();
        for c in topo.connections() {
            for (from, to) in [(c.a, c.b), (c.b, c.a)] {
                if owner[from.rank] == peer && owner[to.rank] == me {
                    recv_keys.push((from.rank, from.qsfp));
                } else if owner[from.rank] == me && owner[to.rank] == peer {
                    tx_keys.push((from.rank, from.qsfp));
                }
            }
        }
        let info = PeerInfo {
            rank: procs[peer]
                .iter()
                .copied()
                .min()
                .expect("non-empty process"),
            process: peer,
            backend: backend.name(),
            addr,
        };
        let role = match ps.role {
            StreamRole::Dial { redial } => ReconnectRole::Dialer { redial },
            StreamRole::Accept => ReconnectRole::Listener { hub: hub.clone() },
        };
        let cfg = ConnConfig {
            peer: info,
            recv_keys: recv_keys.clone(),
            replay_budget: REPLAY_BUDGET,
            session: Session::new(ps.session, me, peer, params.stream_reconnect),
            role,
            faults: faults.and_then(|fp| fp.injector_for(me, peer)),
            stats: stats.clone(),
        };
        ps.stream.set_nonblocking(true)?;
        let (conn, pump) = SocketConn::new(ps.stream, cfg, health.clone());
        for key in tx_keys {
            ext_tx.insert(key, conn.tx(key.0, key.1));
        }
        for key in recv_keys {
            ext_rx.insert(key, conn.rx(key));
        }
        pumps.push(Box::new(pump));
    }

    let remote: HashMap<usize, (usize, String)> = (0..n)
        .filter(|&r| owner[r] != me)
        .map(|r| {
            let p = owner[r];
            let addr = peer_addr
                .get(&p)
                .cloned()
                .unwrap_or_else(|| format!("process {p} (no direct link)"));
            (r, (p, addr))
        })
        .collect();

    Ok(GroupFabric {
        links: FabricLinks {
            local,
            ext_tx,
            ext_rx,
            health: health.clone(),
        },
        pumps,
        diag: FabricDiag {
            backend: backend.name(),
            health,
            remote,
        },
    })
}

/// A filesystem path for a fresh Unix-domain data listener, unique within
/// this process.
pub(crate) fn fresh_uds_path(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("smi-{}-{tag}-{n}.sock", std::process::id()))
}

/// Bind a re-dialable data listener of the given backend, returning it with
/// the [`Redial`] peers use to (re)connect.
pub(crate) fn bind_data_listener(
    backend: TransportBackend,
    tag: &str,
) -> io::Result<(SocketListener, Redial)> {
    match backend {
        TransportBackend::Uds => {
            let (l, addr) = SocketListener::bind_uds(fresh_uds_path(tag))?;
            Ok((l, Redial::Uds(addr)))
        }
        TransportBackend::Tcp => {
            let (l, addr) = SocketListener::bind_tcp()?;
            Ok((l, Redial::Tcp(addr)))
        }
        TransportBackend::InMem => unreachable!("in-memory fabric has no streams"),
    }
}

/// Establish the inter-group socket mesh of a validated plan: one
/// [`GroupWiring`] per group, in process order. For every crossing pair
/// `(lo, hi)` the lower-indexed group listens and the higher dials — the
/// same orientation mid-stream recovery re-dials with — and the listener
/// stays open inside the lo group's wiring so faulted peers can come back.
pub(crate) fn setup_groups<'a>(
    topo: &Topology,
    procs: &'a [Vec<usize>],
    backend: TransportBackend,
    faults: Option<&'a FaultPlan>,
) -> Result<Vec<GroupWiring<'a>>, LaunchError> {
    let mut groups: Vec<GroupWiring> = (0..procs.len())
        .map(|idx| GroupWiring {
            procs,
            idx,
            backend,
            streams: Vec::new(),
            listener: None,
            faults,
        })
        .collect();
    let mut redials: HashMap<usize, Redial> = HashMap::new();
    for (g, h) in crossing_pairs(topo, procs) {
        let mut plumb = || -> io::Result<()> {
            if let std::collections::hash_map::Entry::Vacant(e) = redials.entry(g) {
                let (listener, redial) = bind_data_listener(backend, &format!("grp{g}"))?;
                groups[g].listener = Some(listener);
                e.insert(redial);
            }
            let redial = redials[&g].clone();
            let dialed = redial.connect()?;
            let accepted = groups[g]
                .listener
                .as_ref()
                .expect("listener bound above")
                .accept()?;
            let session = fresh_session_id();
            groups[g].streams.push(PeerStream {
                proc: h,
                stream: accepted,
                session,
                role: StreamRole::Accept,
            });
            groups[h].streams.push(PeerStream {
                proc: g,
                stream: dialed,
                session,
                role: StreamRole::Dial { redial },
            });
            Ok(())
        };
        plumb()
            .map_err(|e| LaunchError::Plan(format!("socket setup for processes {g}/{h}: {e}")))?;
    }
    Ok(groups)
}

/// [`run_mpmd`](crate::run_mpmd) with the cluster split across in-process
/// groups joined by real sockets — one thread group per planned process,
/// cross-group edges on the plan's backend. Behaviourally identical to
/// `run_mpmd` (the collective and point-to-point semantics don't change
/// with the carrier); used to prove exactly that, deterministically,
/// without spawning OS processes. A `backend: "inmem"` plan is the
/// one-group case: its partition is ignored and it runs as `run_mpmd` does.
///
/// Communicator splits ([`crate::Communicator::split`]) are not supported
/// across process boundaries — the split board is process-local. Use the
/// world communicator.
pub fn run_split_mpmd<T: Send + 'static>(
    plan: &ProcessPlan,
    metas: Vec<ProgramMeta>,
    programs: Vec<Box<dyn FnOnce(SmiCtx) -> T + Send>>,
    params: RuntimeParams,
) -> Result<RunReport<T>, LaunchError> {
    let topo = plan.build_topology()?;
    env::launch(&topo, Some(plan), metas, Bodies::Threads(programs), params)
}

/// SPMD variant of [`run_split_mpmd`]: one closure, cloned per rank.
pub fn run_split_spmd<T, F>(
    plan: &ProcessPlan,
    meta: ProgramMeta,
    program: F,
    params: RuntimeParams,
) -> Result<RunReport<T>, LaunchError>
where
    T: Send + 'static,
    F: Fn(SmiCtx) -> T + Send + Sync + Clone + 'static,
{
    let topo = plan.build_topology()?;
    let n = topo.num_ranks();
    let bodies = Bodies::spmd_threads(n, program);
    env::launch(&topo, Some(plan), vec![meta; n], bodies, params)
}

/// Cooperative-task variant of [`run_split_mpmd`]: each group drives its
/// rank tasks, CK machines and socket pumps on its own sharded executor.
/// Each group's stall watchdog knows the backend and peer addresses, so a
/// dead peer process surfaces as [`SmiError::PeerDisconnected`] rather
/// than a bare stall.
pub fn run_split_mpmd_tasks(
    plan: &ProcessPlan,
    metas: Vec<ProgramMeta>,
    factories: Vec<TaskFactory>,
    params: RuntimeParams,
) -> Result<RunReport<Result<(), SmiError>>, LaunchError> {
    let topo = plan.build_topology()?;
    env::launch(&topo, Some(plan), metas, Bodies::tasks(factories), params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_json_roundtrip() {
        let topo = Topology::ring(4);
        let plan = ProcessPlan::split(&topo, TransportBackend::Uds, 2);
        let json = plan.to_json();
        let back = ProcessPlan::from_json(&json).unwrap();
        assert_eq!(back.backend, "uds");
        assert_eq!(back.rank_sets(), vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(back.build_topology().unwrap(), topo);
    }

    #[test]
    fn plan_validation_rejects_bad_partitions() {
        let topo = Topology::ring(4);
        let mut plan = ProcessPlan::split(&topo, TransportBackend::Uds, 2);
        plan.processes[1].ranks = vec![2]; // rank 3 unhosted
        assert!(matches!(plan.build_topology(), Err(LaunchError::Plan(_))));
        plan.processes[1].ranks = vec![1, 2, 3]; // rank 1 hosted twice
        assert!(matches!(plan.build_topology(), Err(LaunchError::Plan(_))));
        plan.processes[1].ranks = vec![2, 3, 4]; // rank 4 out of range
        assert!(matches!(plan.build_topology(), Err(LaunchError::Plan(_))));
        plan.processes = vec![];
        assert!(matches!(plan.build_topology(), Err(LaunchError::Plan(_))));
    }

    #[test]
    fn crossing_pairs_finds_boundary_edges() {
        let topo = Topology::ring(4); // 0-1-2-3-0
        let procs = vec![vec![0, 1], vec![2, 3]];
        assert_eq!(crossing_pairs(&topo, &procs), vec![(0, 1)]);
        let procs4 = vec![vec![0], vec![1], vec![2], vec![3]];
        assert_eq!(
            crossing_pairs(&topo, &procs4),
            vec![(0, 1), (0, 3), (1, 2), (2, 3)]
        );
    }

    #[test]
    fn backend_names_roundtrip() {
        for b in [
            TransportBackend::InMem,
            TransportBackend::Uds,
            TransportBackend::Tcp,
        ] {
            assert_eq!(TransportBackend::parse(b.name()), Some(b));
            assert_eq!(format!("{b}"), b.name());
        }
        assert_eq!(TransportBackend::parse("quic"), None);
    }

    /// The plan file the launcher smokes run.
    const PLAN_2PROC: &str = include_str!("../../../../examples/topology_2proc.json");

    /// A port count one past the bound is refused as a typed topology error
    /// before anything is sized by it.
    #[test]
    fn a_plan_past_the_port_bound_is_a_typed_error() {
        use smi_topology::{TopologyError, MAX_PORTS_PER_RANK};
        let over = MAX_PORTS_PER_RANK + 1;
        let json = PLAN_2PROC.replace(
            "\"ports_per_rank\": 4",
            &format!("\"ports_per_rank\": {over}"),
        );
        let plan = ProcessPlan::from_json(&json).expect("well-formed JSON");
        let err = plan.build_topology().expect_err("past the bound");
        assert!(
            matches!(err, LaunchError::Topology(TopologyError::TooManyPorts(n)) if n == over),
            "{err}"
        );
    }

    /// Everything the launcher makes of a plan file's bytes: parsed, its
    /// backend read and its topology built, or a typed error on the way —
    /// never a panic, and never an allocation a claimed count sizes.
    fn plan_outcome(bytes: &[u8]) -> Result<(), String> {
        let text = String::from_utf8_lossy(bytes);
        let _ = FaultPlan::from_json(&text);
        let plan = ProcessPlan::from_json(&text).map_err(|e| e.to_string())?;
        plan.parse_backend().map_err(|e| e.to_string())?;
        plan.build_topology().map_err(|e| e.to_string())?;
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        /// Arbitrary bytes, as a plan and as a fault plan.
        #[test]
        fn plan_decoders_survive_arbitrary_bytes(
            bytes in proptest::prop::collection::vec(proptest::any::<u8>(), 0..200),
        ) {
            if let Err(e) = plan_outcome(&bytes) {
                proptest::prop_assert!(!e.is_empty());
            }
        }

        /// The shipped plan, with its faults section filled in, with a few
        /// bytes overwritten and a run of digits spliced in anywhere (the
        /// way a count grows past its bound), cut short at any offset.
        #[test]
        fn plan_decoders_survive_mutated_plans(
            hits in proptest::prop::collection::vec(
                (proptest::any::<usize>(), proptest::any::<u8>()), 0..4),
            digits in proptest::prop::collection::vec(0u8..10, 0..12),
            splice_at in proptest::any::<usize>(),
            keep in proptest::any::<usize>(),
        ) {
            let mut plan = ProcessPlan::from_json(PLAN_2PROC).expect("the shipped plan parses");
            plan.faults = Some(FaultPlan::from_json(
                r#"{"links":[{"from":0,"to":1,"drop":[2],"duplicate":[3],
                "delay":[{"frame":4,"by":1}],"sever":[{"after_frame":5}],"restore":false}]}"#,
            ).expect("the fault plan parses"));
            let mut bytes = plan.to_json().into_bytes();
            for &(at, byte) in &hits {
                let at = at % bytes.len();
                bytes[at] = byte;
            }
            let at = splice_at % (bytes.len() + 1);
            bytes.splice(at..at, digits.iter().map(|d| b'0' + d));
            bytes.truncate(bytes.len() - keep % (bytes.len() / 8 + 1));
            if let Err(e) = plan_outcome(&bytes) {
                proptest::prop_assert!(!e.is_empty());
            }
        }
    }
}
