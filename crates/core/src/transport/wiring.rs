//! Constructing the transport: endpoint FIFOs, CK state machines and links
//! from the (topology, routing plan, generated design) triple — the same
//! inputs the paper's host program uploads to the devices.
//!
//! Nothing is spawned here: the wiring produces one [`CkMachine`] per
//! CKS/CKR kernel, and the env hands all of them to the sharded executor.
//!
//! Inter-CK edges are wired as [`LinkTx`]/[`LinkRx`] trait objects rather
//! than concrete FIFOs. When the whole cluster lives in one process
//! ([`FabricLinks::all_local`]) every edge is an in-memory `burst_queue`,
//! as is each CKS→CKR FIFO; when the cluster is split across OS processes
//! ([`crate::proc`]), the edges crossing a process boundary are handed in
//! as socket-backed links ([`crate::transport::socket`]) and only the ranks
//! marked local are instantiated here. Every endpoint delivery is a
//! `burst_queue` too, and carries data only: a CKR counts every control
//! packet into its port's `PortCtl`. The endpoint lanes into the CKSs
//! are the last crossbeam FIFOs on the data path, and the last edges that
//! take a burst's buffer for good: a burst queue trades it for a spare its
//! consumer handed back, so no hop allocates. A CKR's route keeps its own
//! copy of every bcast port's fan-out, re-read only when the port's
//! generation moved.

use std::collections::HashMap;
use std::sync::Arc;

use smi_codegen::{ClusterDesign, OpKind, OpSpec};
use smi_topology::{NextHop, RoutingPlan, Topology};
use smi_wire::{Header, PacketOp};

use crate::endpoint::{CksLanes, EndpointTable, PacketRx, PortRes};
use crate::params::RuntimeParams;
use crate::transport::ck::{CkMachine, FanOut, PortCtl, Route};
use crate::transport::executor::{Pollable, Wake};
use crate::transport::link::{burst_queue, fifo, LinkRx, LinkTx, QueueTx, Transport};
use crate::transport::socket::FabricHealth;
use crate::transport::TransportStats;

/// Everything the env needs back from wiring: endpoint tables for the
/// *local* ranks (tagged with their world rank) and the CK machines to hand
/// to the executor.
pub(crate) struct TransportHandle {
    pub tables: Vec<(usize, EndpointTable)>,
    pub machines: Vec<Box<dyn Pollable>>,
}

/// Which ranks live in this process, and the link halves for every topology
/// edge that crosses the process boundary.
///
/// Both external maps are keyed by the **sender-side** endpoint
/// `(rank, qsfp)` of the directed edge — the same key the socket backend
/// stamps into its frame headers — so fabric construction and wiring agree
/// on edge identity without consulting the receiver side.
pub(crate) struct FabricLinks {
    /// `local[r]` — rank `r`'s CK machines and endpoints are built here.
    pub local: Vec<bool>,
    /// Send halves for edges leaving a local endpoint toward a remote one.
    pub ext_tx: HashMap<(usize, usize), LinkTx>,
    /// Receive halves for edges arriving from a remote endpoint.
    pub ext_rx: HashMap<(usize, usize), LinkRx>,
    /// Fabric-wide peer-liveness board, cloned into every endpoint table.
    pub health: FabricHealth,
}

impl FabricLinks {
    /// The single-process fabric: every rank local, no external edges.
    pub fn all_local(n: usize) -> Self {
        FabricLinks {
            local: vec![true; n],
            ext_tx: HashMap::new(),
            ext_rx: HashMap::new(),
            health: FabricHealth::default(),
        }
    }
}

/// Take the link half of endpoint `(rank, qsfp)`; each is taken once.
fn take_link<T>(links: &mut HashMap<(usize, usize), T>, rank: usize, qsfp: usize) -> T {
    let half = links.remove(&(rank, qsfp));
    half.unwrap_or_else(|| panic!("no link half for endpoint ({rank},{qsfp})"))
}

/// Where every CKR of a rank delivers one port's packets: one entry of the
/// rank's dense route table, indexed by port.
#[derive(Default)]
struct PortRoute {
    /// CKR output of the data delivery.
    data: Option<usize>,
    /// The port's control state: its `Sync`s and credits are counted
    /// there, never delivered.
    ctl: Option<PortCtl>,
}

impl PortRoute {
    /// The verdict on a packet of `op` that reached its destination rank: a
    /// control packet is counted if the port has control state, and a data
    /// packet delivered if it has a data delivery; anything else is
    /// unroutable. `seen` is the routing CKR's copy of the port's fan-out.
    fn route(&self, op: PacketOp, seen: &mut FanOut) -> Route {
        match (op, &self.ctl, self.data) {
            (PacketOp::Sync | PacketOp::Credit, Some(ctl), _) => Route::Count(ctl.clone()),
            (PacketOp::Sync | PacketOp::Credit, None, _) | (_, _, None) => Route::Drop,
            (PacketOp::Bcast, Some(ctl), Some(local)) => ctl.fan_out(local, seen),
            (_, _, Some(local)) => Route::Output(local),
        }
    }
}

/// Build channels and CK machines for the ranks this process hosts, wiring
/// cross-process edges from the supplied fabric links.
pub(crate) fn build_transport(
    topo: &Topology,
    plan: &RoutingPlan,
    design: &ClusterDesign,
    params: &RuntimeParams,
    stats: TransportStats,
    links: FabricLinks,
) -> TransportHandle {
    let n = topo.num_ranks();
    if n == 1 {
        return build_single_rank(design, params, &links.health, &stats);
    }
    let FabricLinks {
        local,
        mut ext_tx,
        mut ext_rx,
        health,
    } = links;
    assert_eq!(local.len(), n, "one locality flag per rank");

    // Endpoint FIFO sizing: the per-op buffer depth, floored by the global
    // asynchronicity knob (same rule as the single-rank wiring).
    let ep_depth = |op_depth: usize| op_depth.max(params.endpoint_fifo_depth).max(1);

    // One wake handle per CK machine, `wakes[rank][pair]` = (CKS's, CKR's),
    // made before any FIFO: every input of a machine names its handle before
    // any producer runs.
    let wakes: Vec<Vec<(Wake, Wake)>> = (0..n)
        .map(|r| {
            let pairs = design.rank(r).ck_qsfps.iter().filter(|_| local[r]);
            pairs.map(|_| Default::default()).collect()
        })
        .collect();
    let ckr_wake_at = |rank: usize, qsfp: usize| {
        let pairs = &design.rank(rank).ck_qsfps;
        let p = pairs.iter().position(|&q| q == qsfp);
        &wakes[rank][p.unwrap_or_else(|| panic!("no CK pair on endpoint ({rank},{qsfp})"))].1
    };

    // Directed link halves. `link_tx` is keyed by the sender-side endpoint
    // (a CKS's own network port), `link_rx` by the receiver-side endpoint (a
    // CKR's own network port); each is consumed exactly once below.
    let mut link_tx: HashMap<(usize, usize), LinkTx> = HashMap::new();
    let mut link_rx: HashMap<(usize, usize), LinkRx> = HashMap::new();
    for c in topo.connections() {
        for (from, to) in [(c.a, c.b), (c.b, c.a)] {
            let mut rx = match (local[from.rank], local[to.rank]) {
                (true, true) => {
                    let (tx, rx) = burst_queue(params.ck_fifo_depth);
                    link_tx.insert((from.rank, from.qsfp), Box::new(tx));
                    rx
                }
                (true, false) => {
                    let tx = take_link(&mut ext_tx, from.rank, from.qsfp);
                    link_tx.insert((from.rank, from.qsfp), tx);
                    continue;
                }
                (false, true) => take_link(&mut ext_rx, from.rank, from.qsfp),
                (false, false) => continue,
            };
            rx.wake_with(ckr_wake_at(to.rank, to.qsfp));
            link_rx.insert((to.rank, to.qsfp), rx);
        }
    }

    let mut tables = Vec::new();
    let mut machines: Vec<Box<dyn Pollable>> = Vec::new();
    let meter = stats.payload_copies.clone();

    for (r, &is_local) in local.iter().enumerate().take(n) {
        if !is_local {
            continue;
        }
        let rank_design = design.rank(r);
        let pairs: Vec<usize> = rank_design.ck_qsfps.clone();
        let np = pairs.len();
        let mut pair_of_qsfp = vec![usize::MAX; topo.ports_per_rank()];
        for (i, &q) in pairs.iter().enumerate() {
            pair_of_qsfp[q] = i;
        }

        // dst rank -> the CK pair whose port the next hop leaves by, `np` for
        // this rank: the M20K routing table of §4.3, built once per rank and
        // shared by its endpoints and kernels.
        let next_pair: Arc<Vec<usize>> = Arc::new(
            (0..n)
                .map(|dst| match plan.next_hop(r, dst) {
                    NextHop::Local => np,
                    NextHop::Via(q) => pair_of_qsfp[q],
                })
                .collect(),
        );

        // Endpoints.
        let mut table = EndpointTable::with_health(health.clone(), meter.clone());
        let (cks_wake, ckr_wake): (Vec<&Wake>, Vec<&Wake>) =
            wakes[r].iter().map(|(cks, ckr)| (cks, ckr)).unzip();
        // A CKS's inputs are one lane from each endpoint and nothing else:
        // an endpoint's lanes are a FIFO into every CKS, in pair order.
        let mut cks_in: Vec<Vec<LinkRx>> = (0..np).map(|_| Vec::new()).collect();
        let mut lanes = |depth: usize, bound: usize| CksLanes {
            lanes: (cks_wake.iter().zip(&mut cks_in))
                .map(|(wake, inputs)| {
                    let (tx, rx) = fifo(depth, wake);
                    inputs.push(rx);
                    tx
                })
                .collect(),
            next_pair: next_pair.clone(),
            bound,
        };
        // The dense route table: port -> its CKR outputs, after the `np`
        // links, and its tree. `delivery_tx[i]` feeds output `np + i`.
        let mut delivery_tx: Vec<QueueTx> = Vec::new();
        let mut routes: Vec<PortRoute> = Vec::new();
        for b in &rank_design.bindings {
            let (op, bd) = (b.op, b.op.buffer_depth);
            // Lane depth and the depth of the data delivery; a send, which
            // receives no data, gets none. A receive's lanes carry its
            // credit grants (§3.3). A collective's delivery holds at least
            // one burst per peer: that once kept a control packet sent
            // before its port's owner opened from parking the CKR. No
            // control packet reaches a delivery now (a CKR counts it into
            // the port's `PortCtl`), but a depth sets the schedule, so the
            // sizes stay as they were.
            let ep = ep_depth(bd);
            let (lane_depth, data_depth) = match op.kind {
                OpKind::Send => (ep, None),
                OpKind::Recv => (4, Some(ep)),
                _ => (ep, Some(ep.max(n))),
            };
            let to_cks = lanes(lane_depth, b.ck_pair);
            if routes.len() <= op.port {
                routes.resize_with(op.port + 1, PortRoute::default);
            }
            let route = &mut routes[op.port];
            let rx = data_depth.map(|depth| {
                let (tx, rx) = burst_queue(depth);
                let out = np + delivery_tx.len();
                assert!(route.data.replace(out).is_none(), "a port delivered twice");
                delivery_tx.push(tx);
                PacketRx::new(rx, meter.clone())
            });
            let res = PortRes::new(&op, to_cks, rx);
            // Only a send and a receive share a port, and a receive has no
            // control state.
            route.ctl = route.ctl.take().or(res.ctl.clone());
            table.put(op.port, op.kind, res);
        }

        // Intra-rank CK interconnect, each FIFO moved straight into the two
        // machines it joins. CKS `p` reads its lane of every endpoint, and
        // writes its network port (0) and its CKR (1). CKR `p` reads its
        // network port and its CKS, and writes every link of the rank in pair
        // order, then every endpoint: a transit packet goes straight onto the
        // link of its next hop, a local one to its endpoint. So a CKS only
        // carries packets that start at this rank, and a link has up to
        // `np + 1` producers: its CKS and every CKR. Several producers may
        // feed one FIFO or link and each stream still arrives in order:
        // routing is static, so every `(src, dst)` stream has exactly one
        // producer per FIFO and link it crosses — at its origin the lane
        // `next_pair[dst]` names, then that lane's CKS; on every rank it
        // enters, the one CKR it entered by. A tree bcast's copy keeps that
        // rule: its stream (root → child) is written only by the CKR the
        // parent's stream enters by, which puts each copy on the link of
        // the child's next hop before it delivers the frame itself. An
        // interior's ready announcement (interior → parent) has exactly one
        // producer per message: its CKS, when the open claimed every child
        // from the port's tally, or the CKR that claimed the last child,
        // which writes the parent's link itself. Consecutive messages'
        // announcements cannot pass each other: the next is armed only
        // after this message's data, which the root sent only once this
        // announcement had arrived.
        let links: Vec<LinkTx> = pairs
            .iter()
            .map(|&q| take_link(&mut link_tx, r, q))
            .collect();
        let ckr_out: Vec<Vec<LinkTx>> = (0..np)
            .map(|_| links.iter().map(|link| link.share()).collect())
            .collect();
        let mut cks_out: Vec<Vec<LinkTx>> = Vec::with_capacity(np);
        let mut ckr_in: Vec<Vec<LinkRx>> = Vec::with_capacity(np);
        for (p, link) in links.into_iter().enumerate() {
            let (to_ckr, mut from_cks) = burst_queue(params.ck_fifo_depth);
            from_cks.wake_with(ckr_wake[p]);
            cks_out.push(vec![link, Box::new(to_ckr)]);
            ckr_in.push(vec![take_link(&mut link_rx, r, pairs[p]), from_cks]);
        }
        let routes = Arc::new(routes);

        // --- CKS machines ---
        for (p, (inputs, outputs)) in cks_in.into_iter().zip(cks_out).enumerate() {
            let next_pair = next_pair.clone();
            machines.push(Box::new(CkMachine::new(
                r,
                cks_wake[p].clone(),
                inputs,
                outputs,
                // No producer hands a CKS a packet for another pair's port:
                // one would be a wiring bug, counted as unroutable.
                Box::new(move |h: &Header| match next_pair.get(h.dst as usize) {
                    Some(&t) if t == np => Route::Output(1),
                    Some(&t) if t == p => Route::Output(0),
                    _ => Route::Drop,
                }),
                params.poll_persistence,
                params.burst_packets,
                stats.cks_forwards.clone(),
                stats.unroutable.clone(),
                meter.clone(),
            )));
        }

        // --- CKR machines ---
        // Each CKR holds its own producer of every delivery; the originals
        // drop with `delivery_tx`, so a delivery closes with its last CKR.
        for (p, (inputs, mut outputs)) in ckr_in.into_iter().zip(ckr_out).enumerate() {
            outputs.extend(delivery_tx.iter().map(|tx| tx.share()));
            let (next_pair, routes) = (next_pair.clone(), routes.clone());
            let mut seen: Vec<FanOut> = routes.iter().map(|_| FanOut::default()).collect();
            machines.push(Box::new(CkMachine::new(
                r,
                ckr_wake[p].clone(),
                inputs,
                outputs,
                // A pair is its link's output: an interior tree-bcast
                // member's copies and announcement go straight onto links.
                Box::new(move |h: &Header| match next_pair.get(h.dst as usize) {
                    Some(&t) if t < np => Route::Output(t),
                    Some(_) => match routes.get(h.port as usize) {
                        Some(port) => port.route(h.op, &mut seen[h.port as usize]),
                        None => Route::Drop,
                    },
                    None => Route::Drop,
                }),
                params.poll_persistence,
                params.burst_packets,
                stats.ckr_forwards.clone(),
                stats.unroutable.clone(),
                meter.clone(),
            )));
        }

        tables.push((r, table));
    }

    TransportHandle { tables, machines }
}

/// Single-rank cluster: no network — wire each port's send side straight to
/// its receive side (intra-rank channels on matching ports, §3.1.1). A
/// receive's lane counts its grants straight into the send port's control
/// state, with no queue, so even the credit-based protocol works locally. A
/// collective's lane loops into its own data delivery; nothing sends it
/// credit. A lone receive has nothing to feed it and no lanes or half at
/// all: a pop reports a timeout. Each data loop is one `burst_queue`, a
/// lane and a delivery at once.
fn build_single_rank(
    design: &ClusterDesign,
    params: &RuntimeParams,
    health: &FabricHealth,
    stats: &TransportStats,
) -> TransportHandle {
    let meter = stats.payload_copies.clone();
    let mut table = EndpointTable::with_health(health.clone(), meter.clone());
    let mut ops: Vec<OpSpec> = design.rank(0).bindings.iter().map(|b| b.op).collect();
    // Sends first: each leaves its port's loop for a receive to join.
    ops.sort_by_key(|op| op.kind != OpKind::Send);
    let mut loops = HashMap::new();
    for op in &ops {
        let (to_cks, rx, send_rx) = match op.kind {
            OpKind::Send => {
                let depth = op.buffer_depth.max(params.endpoint_fifo_depth).max(1);
                let (tx, rx) = burst_queue(depth);
                (CksLanes::loopback(Box::new(tx)), None, Some(rx))
            }
            OpKind::Recv => match loops.remove(&op.port) {
                Some((rx, grants)) => (CksLanes::loopback(grants), Some(rx), None),
                None => (CksLanes::default(), None, None),
            },
            _ => {
                let (tx, rx) = burst_queue(op.buffer_depth.max(1));
                (CksLanes::loopback(Box::new(tx)), Some(rx), None)
            }
        };
        let res = PortRes::new(op, to_cks, rx.map(|rx| PacketRx::new(rx, meter.clone())));
        if let (Some(rx), Some(ctl)) = (send_rx, &res.ctl) {
            loops.insert(op.port, (rx, ctl.share()));
        }
        table.put(op.port, op.kind, res);
    }
    TransportHandle {
        tables: vec![(0, table)],
        machines: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Copies;
    use smi_wire::{Datatype, NetworkPacket, ReduceOp};

    /// A `Sync` or a credit for a port with control state — every kind but
    /// a receive — is counted into that state, armed or not, and never
    /// routed to a delivery; a receive, which has none, drops both as
    /// unroutable.
    #[test]
    fn a_control_packet_never_routes_to_a_delivery() {
        for kind in OpKind::ALL {
            let op = OpSpec {
                kind,
                reduce_op: (kind == OpKind::Reduce).then_some(ReduceOp::Add),
                ..OpSpec::send(0, Datatype::Int)
            };
            let res = PortRes::new(&op, CksLanes::default(), None);
            let route = PortRoute {
                data: (kind != OpKind::Send).then_some(2),
                ctl: res.ctl.clone(),
            };
            assert_eq!(res.ctl.is_none(), kind == OpKind::Recv, "{kind:?}");
            for armed in [false, true] {
                if let (true, Some(ctl)) = (armed, &res.ctl) {
                    let up = NetworkPacket::control(1, 0, 0, PacketOp::Sync, 0);
                    ctl.arm(Arc::new([(2, 0)]), &[2], Some((up, 0)));
                }
                for control in [PacketOp::Sync, PacketOp::Credit] {
                    let want = res.ctl.clone().map_or(Route::Drop, Route::Count);
                    let at = format!("{control:?} to {kind:?}, armed {armed}");
                    assert!(route.route(control, &mut FanOut::default()) == want, "{at}");
                }
            }
        }
    }

    /// A CKR's copy of a bcast port's fan-out follows every generation of
    /// the port: an arm's copies, a re-arm's new ones, the local delivery
    /// after a disarm, and each of three messages under a rotating root —
    /// interior, root, leaf — each armed and then disarmed. Between
    /// generations the verdict takes no lock: it comes while another
    /// thread holds the port's control state.
    #[test]
    fn the_fan_out_snapshot_follows_every_generation() {
        let ctl = PortCtl::default();
        let route = PortRoute {
            data: Some(2),
            ctl: Some(ctl.clone()),
        };
        let mut seen = FanOut::default();
        let mut verdict = || route.route(PacketOp::Bcast, &mut seen);
        let multicast = |copies: &Copies| Route::Multicast {
            copies: copies.clone(),
            local: 2,
        };
        let up = || Some((NetworkPacket::control(1, 0, 0, PacketOp::Sync, 0), 0));
        assert!(verdict() == Route::Output(2), "never armed");
        let first: Copies = Arc::new([(2, 0), (3, 1)]);
        ctl.arm(first.clone(), &[2, 3], up());
        assert!(verdict() == multicast(&first), "armed");
        let second: Copies = Arc::new([(4, 1)]);
        ctl.arm(second.clone(), &[4], up());
        assert!(verdict() == multicast(&second), "re-armed");
        std::thread::scope(|s| {
            let held = ctl.lock();
            let (tx, rx) = std::sync::mpsc::channel();
            s.spawn(move || tx.send(verdict() == multicast(&second)).unwrap());
            let got = rx.recv_timeout(std::time::Duration::from_secs(5));
            drop(held);
            assert_eq!(got, Ok(true), "an unchanged generation locked");
        });
        let mut verdict = || route.route(PacketOp::Bcast, &mut seen);
        ctl.disarm();
        assert!(verdict() == Route::Output(2), "disarmed");
        // Rotating roots: an interior with children 5 and 6, then the root
        // (no copies, no announcement), then a leaf (no children).
        let interior: Copies = Arc::new([(5, 0), (6, 0)]);
        let generations = [
            (interior.clone(), vec![5, 6], up(), multicast(&interior)),
            (Copies::default(), vec![5], None, Route::Output(2)),
            (Copies::default(), vec![], up(), Route::Output(2)),
        ];
        for (m, (copies, children, up, want)) in generations.into_iter().enumerate() {
            ctl.arm(copies, &children, up);
            assert!(verdict() == want, "message {m}");
            ctl.disarm();
            assert!(verdict() == Route::Output(2), "message {m} disarmed");
        }
    }
}
