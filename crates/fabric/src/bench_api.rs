//! One-call experiment runners for the paper's microbenchmarks (§5.3).
//!
//! Each runner executes the full production workflow: derive the
//! communication design from op metadata (`smi-codegen`), compute
//! deadlock-free routes (`smi-topology`), wire the fabric, run it cycle by
//! cycle, and report both the timing and the end-to-end data-integrity
//! counters.

use smi_codegen::{ClusterDesign, OpKind, OpSpec, ProgramMeta};
use smi_topology::{hop_tree, RoutingPlan, Topology};
use smi_wire::{Datatype, ReduceOp};

use crate::apps::collective_apps::{CollectiveConsumer, CollectiveProducer};
use crate::apps::data;
use crate::apps::pingpong::{PingPongInitiator, PingPongResponder};
use crate::apps::stream::{new_probe, StreamSink, StreamSource};
use crate::builder::FabricBuilder;
use crate::collective::tree::{TreeBcastSupport, TreeReduceSupport};
use crate::collective::{
    BcastSupport, CollectiveComm, GatherSupport, ReduceSupport, ScatterSupport,
};
use crate::engine::SimError;
use crate::params::FabricParams;

/// Result of a point-to-point streaming run.
#[derive(Debug, Clone, PartialEq)]
pub struct P2pResult {
    /// Total cycles from start to the sink's last element.
    pub cycles: u64,
    /// Wall time in µs at the configured kernel clock.
    pub time_us: f64,
    /// Achieved payload bandwidth in Gbit/s.
    pub payload_gbit_s: f64,
    /// Network hops the route takes.
    pub hops: usize,
    /// Sequence mismatches observed by the sink (must be 0).
    pub errors: u64,
}

/// Stream `count` elements of `dtype` from `src` to `dst` and measure
/// bandwidth (the Fig. 9 microbenchmark).
pub fn p2p_stream(
    topo: &Topology,
    src: usize,
    dst: usize,
    count: u64,
    dtype: Datatype,
    params: &FabricParams,
) -> Result<P2pResult, SimError> {
    assert_ne!(src, dst, "use injection_rate for local loopback");
    let plan = RoutingPlan::compute(topo).expect("routable topology");
    let hops = plan.hops(src, dst);
    let metas: Vec<ProgramMeta> = (0..topo.num_ranks())
        .map(|r| {
            let mut m = ProgramMeta::new();
            if r == src {
                m = m.with(OpSpec::send(0, dtype));
            }
            if r == dst {
                m = m.with(OpSpec::recv(0, dtype));
            }
            m
        })
        .collect();
    let design = ClusterDesign::mpmd(&metas, topo).expect("valid design");
    let mut b = FabricBuilder::new(topo.clone(), plan, design, params.clone());
    let out = b.register_send(src, 0);
    let input = b.register_recv(dst, 0);
    let send_probe = new_probe();
    let recv_probe = new_probe();
    let width = dtype.elems_per_packet() as u32;
    b.add_component(StreamSource::new(
        "source", out, dtype, src as u8, dst as u8, 0, count, width, send_probe,
    ));
    b.add_component(StreamSink::new(
        "sink",
        input,
        dtype,
        count,
        recv_probe.clone(),
    ));
    let mut fabric = b.finalize();
    let budget = 10_000 + (count / dtype.elems_per_packet() as u64) * 4 + 4_000 * hops as u64;
    let report = fabric.run(budget.max(1_000_000))?;
    let bytes = dtype.bytes_for(count as usize);
    let errors = recv_probe.borrow().errors;
    Ok(P2pResult {
        cycles: report.cycles,
        time_us: params.cycles_to_us(report.cycles),
        payload_gbit_s: params.payload_gbit_s(bytes, report.cycles),
        hops,
        errors,
    })
}

/// Result of a ping-pong latency run.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyResult {
    /// Total cycles for all iterations.
    pub cycles: u64,
    /// Half round-trip time in µs (the paper's latency metric).
    pub half_rtt_us: f64,
    /// Network hops between the two ranks.
    pub hops: usize,
}

/// Ping-pong a 1-element message between `a` and `b` (the Tab. 3
/// microbenchmark): latency = half the round-trip time.
pub fn pingpong(
    topo: &Topology,
    a: usize,
    b_rank: usize,
    iters: u32,
    params: &FabricParams,
) -> Result<LatencyResult, SimError> {
    let plan = RoutingPlan::compute(topo).expect("routable topology");
    let hops = plan.hops(a, b_rank);
    let dtype = Datatype::Int;
    let metas: Vec<ProgramMeta> = (0..topo.num_ranks())
        .map(|r| {
            let mut m = ProgramMeta::new();
            if r == a {
                m = m.with(OpSpec::send(0, dtype)).with(OpSpec::recv(1, dtype));
            }
            if r == b_rank {
                m = m.with(OpSpec::recv(0, dtype)).with(OpSpec::send(1, dtype));
            }
            m
        })
        .collect();
    let design = ClusterDesign::mpmd(&metas, topo).expect("valid design");
    let mut builder = FabricBuilder::new(topo.clone(), plan, design, params.clone());
    let a_out = builder.register_send(a, 0);
    let b_in = builder.register_recv(b_rank, 0);
    let b_out = builder.register_send(b_rank, 1);
    let a_in = builder.register_recv(a, 1);
    builder.add_component(PingPongInitiator::new(
        "initiator",
        a_out,
        a_in,
        dtype,
        a as u8,
        b_rank as u8,
        0,
        iters,
    ));
    builder.add_component(PingPongResponder::new(
        "responder",
        b_out,
        b_in,
        dtype,
        b_rank as u8,
        a as u8,
        1,
        iters,
    ));
    let mut fabric = builder.finalize();
    let budget = (iters as u64) * (params.link_latency_cycles + 100) * (2 * hops as u64 + 2);
    let report = fabric.run(budget.max(1_000_000))?;
    let rtt_cycles = report.cycles as f64 / iters as f64;
    Ok(LatencyResult {
        cycles: report.cycles,
        half_rtt_us: params.cycles_to_us(1) * rtt_cycles / 2.0,
        hops,
    })
}

/// Result of the injection-rate microbenchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionResult {
    /// Average cycles between accepted packets from the same endpoint
    /// (the paper's Tab. 4 metric).
    pub cycles_per_packet: f64,
    /// Total cycles.
    pub cycles: u64,
}

/// Measure the CKS injection latency (Tab. 4): one application sends
/// 1-element messages every loop iteration through a CKS serving 4 network
/// ports, with polling persistence `R` taken from `params`.
///
/// The destination is the local rank (loopback through the paired CKR), so
/// the measurement isolates the arbitration period rather than the link
/// line rate.
pub fn injection_rate(params: &FabricParams, count: u64) -> Result<InjectionResult, SimError> {
    let topo = Topology::torus2d(2, 4); // every rank has 4 CK pairs
    let plan = RoutingPlan::compute(&topo).expect("routable");
    let dtype = Datatype::Int;
    let metas: Vec<ProgramMeta> = (0..topo.num_ranks())
        .map(|r| {
            if r == 0 {
                ProgramMeta::new()
                    .with(OpSpec::send(0, dtype))
                    .with(OpSpec::recv(0, dtype))
            } else {
                ProgramMeta::new()
            }
        })
        .collect();
    let design = ClusterDesign::mpmd(&metas, &topo).expect("valid design");
    let mut b = FabricBuilder::new(topo, plan, design, params.clone());
    let out = b.register_send(0, 0);
    let input = b.register_recv(0, 0);
    let probe = new_probe();
    b.add_component(
        StreamSource::new("injector", out, dtype, 0, 0, 0, count, 1, new_probe())
            .packet_per_element(),
    );
    b.add_component(StreamSink::new("sink", input, dtype, count, probe.clone()));
    let mut fabric = b.finalize();
    let report = fabric.run(count * 40 + 100_000)?;
    // Steady-state period: total cycles divided by packets (ramp-in/out is
    // amortized by a large count).
    Ok(InjectionResult {
        cycles_per_packet: report.cycles as f64 / count as f64,
        cycles: report.cycles,
    })
}

/// Which collective to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// One-to-all broadcast.
    Bcast,
    /// One-to-all personalized (scatter).
    Scatter,
    /// All-to-one concatenation (gather).
    Gather,
    /// All-to-one reduction.
    Reduce,
}

/// Collective algorithm variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveScheme {
    /// The paper's linear scheme (§4.4).
    Linear,
    /// The paper's named extension (Bcast/Reduce only): the functional
    /// plane's hop tree, every edge one physical link on the regular
    /// topologies.
    Tree,
}

/// Result of a collective run.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveResult {
    /// Total cycles until every participant finished.
    pub cycles: u64,
    /// Wall time in µs.
    pub time_us: f64,
    /// Verification mismatches (must be 0).
    pub errors: u64,
}

/// Run a collective over all ranks of `topo` with the given root and
/// per-rank element `count` (the Fig. 10/11 microbenchmarks).
#[allow(clippy::too_many_arguments)]
pub fn collective(
    topo: &Topology,
    kind: CollectiveKind,
    scheme: CollectiveScheme,
    root: usize,
    count: u64,
    dtype: Datatype,
    reduce_op: ReduceOp,
    params: &FabricParams,
) -> Result<CollectiveResult, SimError> {
    let n = topo.num_ranks();
    let plan = RoutingPlan::compute(topo).expect("routable topology");
    let op_spec = match kind {
        CollectiveKind::Bcast => OpSpec::bcast(0, dtype),
        CollectiveKind::Scatter => OpSpec::scatter(0, dtype),
        CollectiveKind::Gather => OpSpec::gather(0, dtype),
        CollectiveKind::Reduce => OpSpec::reduce(0, dtype, reduce_op),
    };
    let meta = ProgramMeta::new().with(op_spec);
    let design = ClusterDesign::spmd(&meta, topo).expect("valid design");
    let comm = CollectiveComm {
        ranks: (0..n).collect(),
        root,
        port: 0,
        dtype,
        count,
    };
    let parents = match scheme {
        CollectiveScheme::Tree => hop_tree(&plan.clone().into_hops(), &comm.ranks, root),
        CollectiveScheme::Linear => Vec::new(),
    };
    let mut b = FabricBuilder::new(topo.clone(), plan, design, params.clone());
    let width = dtype.elems_per_packet() as u32;
    let probe = new_probe();
    let sz = dtype.size_bytes();
    for rank in 0..n {
        let w = b.register_collective(rank, 0, op_kind_of(kind));
        match (kind, scheme) {
            (CollectiveKind::Bcast, CollectiveScheme::Linear) => b.add_component(
                BcastSupport::new(format!("bcast.r{rank}"), comm.clone(), rank, w),
            ),
            (CollectiveKind::Bcast, CollectiveScheme::Tree) => {
                let (parent, children) = tree_edges(&parents, root, rank);
                b.add_component(TreeBcastSupport::new(
                    format!("tbcast.r{rank}"),
                    comm.clone(),
                    rank,
                    parent,
                    children,
                    w,
                ))
            }
            (CollectiveKind::Scatter, _) => b.add_component(ScatterSupport::new(
                format!("scatter.r{rank}"),
                comm.clone(),
                rank,
                w,
            )),
            (CollectiveKind::Gather, _) => b.add_component(GatherSupport::new(
                format!("gather.r{rank}"),
                comm.clone(),
                rank,
                w,
            )),
            (CollectiveKind::Reduce, CollectiveScheme::Linear) => {
                b.add_component(ReduceSupport::new(
                    format!("reduce.r{rank}"),
                    comm.clone(),
                    reduce_op,
                    params.reduce_credits as u64,
                    rank,
                    w,
                ))
            }
            (CollectiveKind::Reduce, CollectiveScheme::Tree) => {
                let (parent, children) = tree_edges(&parents, root, rank);
                b.add_component(TreeReduceSupport::new(
                    format!("treduce.r{rank}"),
                    comm.clone(),
                    reduce_op,
                    params.reduce_credits as u64,
                    rank,
                    parent,
                    children,
                    w,
                ))
            }
        }
        // Producers and consumers per collective semantics.
        match kind {
            CollectiveKind::Bcast => {
                if rank == root {
                    b.add_component(CollectiveProducer::new(
                        format!("prod.r{rank}"),
                        w.app_in,
                        dtype,
                        count,
                        width,
                        move |i, out| data::write_element(dtype, i, out),
                    ));
                } else {
                    b.add_component(CollectiveConsumer::new(
                        format!("cons.r{rank}"),
                        w.app_out,
                        dtype,
                        count,
                        probe.clone(),
                        move |i, got| data::check_element(dtype, i, got),
                    ));
                }
            }
            CollectiveKind::Scatter => {
                if rank == root {
                    b.add_component(CollectiveProducer::new(
                        format!("prod.r{rank}"),
                        w.app_in,
                        dtype,
                        count * n as u64,
                        width,
                        move |i, out| data::write_element(dtype, i, out),
                    ));
                }
                let offset = comm.index_of(rank).expect("member") as u64 * count;
                b.add_component(CollectiveConsumer::new(
                    format!("cons.r{rank}"),
                    w.app_out,
                    dtype,
                    count,
                    probe.clone(),
                    move |i, got| data::check_element(dtype, offset + i, got),
                ));
            }
            CollectiveKind::Gather => {
                let offset = comm.index_of(rank).expect("member") as u64 * count;
                b.add_component(CollectiveProducer::new(
                    format!("prod.r{rank}"),
                    w.app_in,
                    dtype,
                    count,
                    width,
                    move |i, out| data::write_element(dtype, offset + i, out),
                ));
                if rank == root {
                    b.add_component(CollectiveConsumer::new(
                        format!("cons.r{rank}"),
                        w.app_out,
                        dtype,
                        count * n as u64,
                        probe.clone(),
                        move |i, got| data::check_element(dtype, i, got),
                    ));
                }
            }
            CollectiveKind::Reduce => {
                b.add_component(CollectiveProducer::new(
                    format!("prod.r{rank}"),
                    w.app_in,
                    dtype,
                    count,
                    width,
                    move |i, out| data::write_element(dtype, i, out),
                ));
                if rank == root {
                    let mut ident = vec![0u8; sz];
                    b.add_component(CollectiveConsumer::new(
                        format!("cons.r{rank}"),
                        w.app_out,
                        dtype,
                        count,
                        probe.clone(),
                        move |i, got| {
                            // Expected: the op folded over n identical
                            // canonical contributions.
                            reduce_op.identity_bytes(dtype, &mut ident);
                            let mut contrib = [0u8; 8];
                            data::write_element(dtype, i, &mut contrib[..sz]);
                            for _ in 0..n {
                                reduce_op.fold_bytes(dtype, &mut ident, &contrib[..sz]);
                            }
                            ident.as_slice() == got
                        },
                    ));
                }
            }
        }
    }
    let mut fabric = b.finalize();
    let packets = dtype.packets_for(count as usize) as u64 + 1;
    let budget = 1_000_000
        + packets * (n as u64 + 2) * 8
        + (count / params.reduce_credits as u64 + 2) * 8_000;
    let report = fabric.run(budget)?;
    let errors = probe.borrow().errors;
    Ok(CollectiveResult {
        cycles: report.cycles,
        time_us: params.cycles_to_us(report.cycles),
        errors,
    })
}

/// Result of the switching-mode interference experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct InterferenceResult {
    /// Cycle at which the short flow's last element arrived.
    pub short_completion_cycles: u64,
    /// Cycle at which everything (incl. the long flow) finished.
    pub total_cycles: u64,
}

/// The §4.2 packet-vs-circuit switching ablation: one rank sends a long
/// stream (port 0) and a short message (port 1) through the *same* CKS.
/// Under the reference packet switching the flows interleave and the short
/// message finishes almost immediately; under circuit switching
/// (`params.circuit_hold_cycles > 0`) the long transmission monopolizes the
/// kernel — the "temporary stalls due to the transmission of long messages"
/// that motivated the paper's choice.
pub fn two_flow_interference(
    params: &FabricParams,
    long_elems: u64,
    short_elems: u64,
) -> Result<InterferenceResult, SimError> {
    let topo = Topology::bus(2);
    let plan = RoutingPlan::compute(&topo).expect("plan");
    let dtype = Datatype::Float;
    let metas = vec![
        ProgramMeta::new()
            .with(OpSpec::send(0, dtype))
            .with(OpSpec::send(1, dtype)),
        ProgramMeta::new()
            .with(OpSpec::recv(0, dtype))
            .with(OpSpec::recv(1, dtype)),
    ];
    let design = ClusterDesign::mpmd(&metas, &topo).expect("design");
    let mut b = FabricBuilder::new(topo, plan, design, params.clone());
    let long_out = b.register_send(0, 0);
    let short_out = b.register_send(0, 1);
    let long_in = b.register_recv(1, 0);
    let short_in = b.register_recv(1, 1);
    let short_probe = new_probe();
    let width = dtype.elems_per_packet() as u32;
    b.add_component(StreamSource::new(
        "long",
        long_out,
        dtype,
        0,
        1,
        0,
        long_elems,
        width,
        new_probe(),
    ));
    // The short message starts after the long stream is established, so a
    // circuit-switched CKS has already granted the long flow.
    b.add_component(
        StreamSource::new(
            "short",
            short_out,
            dtype,
            0,
            1,
            1,
            short_elems,
            width,
            new_probe(),
        )
        .with_start_delay(100),
    );
    b.add_component(StreamSink::new(
        "long_sink",
        long_in,
        dtype,
        long_elems,
        new_probe(),
    ));
    b.add_component(StreamSink::new(
        "short_sink",
        short_in,
        dtype,
        short_elems,
        short_probe.clone(),
    ));
    let mut fabric = b.finalize();
    let budget = (long_elems + short_elems) * 8 + 1_000_000;
    let report = fabric.run(budget)?;
    let short_done = short_probe
        .borrow()
        .last_cycle
        .expect("short flow finished");
    Ok(InterferenceResult {
        short_completion_cycles: short_done,
        total_cycles: report.cycles,
    })
}

/// Run a collective over an arbitrary subset of ranks (sub-communicator
/// semantics on the fabric): `members` are global ranks in communicator
/// order; non-members idle. Only Bcast is exercised here — enough to test
/// that communicators smaller than the world behave on the timing plane.
pub fn bcast_subset(
    topo: &Topology,
    members: Vec<usize>,
    root: usize,
    count: u64,
    params: &FabricParams,
) -> Result<CollectiveResult, SimError> {
    assert!(members.contains(&root), "root must be a member");
    let dtype = Datatype::Float;
    let plan = RoutingPlan::compute(topo).expect("plan");
    let metas: Vec<ProgramMeta> = (0..topo.num_ranks())
        .map(|r| {
            if members.contains(&r) {
                ProgramMeta::new().with(OpSpec::bcast(0, dtype))
            } else {
                ProgramMeta::new()
            }
        })
        .collect();
    let design = ClusterDesign::mpmd(&metas, topo).expect("design");
    let mut b = FabricBuilder::new(topo.clone(), plan, design, params.clone());
    let comm = CollectiveComm {
        ranks: members.clone(),
        root,
        port: 0,
        dtype,
        count,
    };
    let probe = new_probe();
    let width = dtype.elems_per_packet() as u32;
    for &rank in &members {
        let w = b.register_collective(rank, 0, OpKind::Bcast);
        b.add_component(BcastSupport::new(
            format!("bcast.r{rank}"),
            comm.clone(),
            rank,
            w,
        ));
        if rank == root {
            b.add_component(CollectiveProducer::new(
                format!("prod.r{rank}"),
                w.app_in,
                dtype,
                count,
                width,
                move |i, out| data::write_element(dtype, i, out),
            ));
        } else {
            b.add_component(CollectiveConsumer::new(
                format!("cons.r{rank}"),
                w.app_out,
                dtype,
                count,
                probe.clone(),
                move |i, got| data::check_element(dtype, i, got),
            ));
        }
    }
    let mut fabric = b.finalize();
    let report = fabric.run(1_000_000 + count * members.len() as u64 * 8)?;
    let errors = probe.borrow().errors;
    Ok(CollectiveResult {
        cycles: report.cycles,
        time_us: params.cycles_to_us(report.cycles),
        errors,
    })
}

/// `rank`'s parent (`None` at the root) and children, ascending, in the
/// tree `parents` (a [`hop_tree`] over the world, so indices are ranks).
fn tree_edges(parents: &[usize], root: usize, rank: usize) -> (Option<usize>, Vec<usize>) {
    let parent = (rank != root).then(|| parents[rank]);
    let children = (0..parents.len())
        .filter(|&c| c != root && parents[c] == rank)
        .collect();
    (parent, children)
}

fn op_kind_of(kind: CollectiveKind) -> OpKind {
    match kind {
        CollectiveKind::Bcast => OpKind::Bcast,
        CollectiveKind::Scatter => OpKind::Scatter,
        CollectiveKind::Gather => OpKind::Gather,
        CollectiveKind::Reduce => OpKind::Reduce,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> FabricParams {
        FabricParams::default()
    }

    #[test]
    fn p2p_adjacent_ranks() {
        let topo = Topology::bus(4);
        let r = p2p_stream(&topo, 0, 1, 10_000, Datatype::Float, &params()).unwrap();
        assert_eq!(r.errors, 0);
        assert_eq!(r.hops, 1);
        // 10k floats = 1429 packets at <= 0.52 packets/cycle.
        assert!(r.payload_gbit_s > 20.0, "bw {}", r.payload_gbit_s);
        assert!(r.payload_gbit_s <= 35.0 + 1e-9);
    }

    #[test]
    fn p2p_multihop_same_bandwidth() {
        // Large enough that the per-hop pipeline ramp (~1.5k cycles over 7
        // hops) is amortized, as in the paper's Fig. 9 at large sizes.
        let topo = Topology::bus(8);
        let near = p2p_stream(&topo, 0, 1, 400_000, Datatype::Float, &params()).unwrap();
        let far = p2p_stream(&topo, 0, 7, 400_000, Datatype::Float, &params()).unwrap();
        assert_eq!(far.hops, 7);
        assert_eq!(near.errors + far.errors, 0);
        // Streaming hides distance: bandwidths within 5%.
        let ratio = far.payload_gbit_s / near.payload_gbit_s;
        assert!((0.95..=1.05).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn pingpong_latency_grows_with_hops() {
        let topo = Topology::bus(8);
        let l1 = pingpong(&topo, 0, 1, 20, &params()).unwrap();
        let l4 = pingpong(&topo, 0, 4, 20, &params()).unwrap();
        let l7 = pingpong(&topo, 0, 7, 20, &params()).unwrap();
        assert!(l1.half_rtt_us < l4.half_rtt_us);
        assert!(l4.half_rtt_us < l7.half_rtt_us);
        // Roughly linear: the 7-hop latency is 5.5-8.5x the 1-hop latency.
        let ratio = l7.half_rtt_us / l1.half_rtt_us;
        assert!((5.0..9.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn injection_rate_matches_polling_model() {
        // R=1 with 5 CKS inputs: one accept every 5 cycles.
        let mut p = params();
        p.poll_persistence = 1;
        let r = injection_rate(&p, 5_000).unwrap();
        assert!(
            (4.8..5.4).contains(&r.cycles_per_packet),
            "got {}",
            r.cycles_per_packet
        );
        // R=8: (8 + 4) / 8 = 1.5 cycles.
        p.poll_persistence = 8;
        let r = injection_rate(&p, 5_000).unwrap();
        assert!(
            (1.4..1.8).contains(&r.cycles_per_packet),
            "got {}",
            r.cycles_per_packet
        );
    }

    #[test]
    fn bcast_linear_small() {
        let topo = Topology::torus2d(2, 2);
        let r = collective(
            &topo,
            CollectiveKind::Bcast,
            CollectiveScheme::Linear,
            0,
            100,
            Datatype::Float,
            ReduceOp::Add,
            &params(),
        )
        .unwrap();
        assert_eq!(r.errors, 0);
    }

    #[test]
    fn bcast_tree_small() {
        let topo = Topology::torus2d(2, 4);
        let r = collective(
            &topo,
            CollectiveKind::Bcast,
            CollectiveScheme::Tree,
            2,
            500,
            Datatype::Float,
            ReduceOp::Add,
            &params(),
        )
        .unwrap();
        assert_eq!(r.errors, 0);
    }

    #[test]
    fn scatter_gather_small() {
        let topo = Topology::torus2d(2, 2);
        for kind in [CollectiveKind::Scatter, CollectiveKind::Gather] {
            let r = collective(
                &topo,
                kind,
                CollectiveScheme::Linear,
                1,
                50,
                Datatype::Int,
                ReduceOp::Add,
                &params(),
            )
            .unwrap();
            assert_eq!(r.errors, 0, "{kind:?}");
        }
    }

    #[test]
    fn reduce_linear_small() {
        let topo = Topology::torus2d(2, 2);
        let mut p = params();
        p.reduce_credits = 32; // exercise multiple tiles
        let r = collective(
            &topo,
            CollectiveKind::Reduce,
            CollectiveScheme::Linear,
            0,
            100,
            Datatype::Float,
            ReduceOp::Add,
            &p,
        )
        .unwrap();
        assert_eq!(r.errors, 0);
    }

    #[test]
    fn packet_switching_interleaves_flows() {
        let p = params();
        let r = two_flow_interference(&p, 50_000, 70).unwrap();
        // The short message (10 packets) finishes within a few hundred
        // cycles of its start despite the concurrent 50k-element stream.
        assert!(
            r.short_completion_cycles < 2_500,
            "short flow at {} cycles",
            r.short_completion_cycles
        );
    }

    #[test]
    fn circuit_switching_starves_short_flow() {
        let mut p = params();
        p.circuit_hold_cycles = 16;
        let r = two_flow_interference(&p, 50_000, 70).unwrap();
        // The long stream monopolizes the CKS: the short message waits for
        // a large fraction of the long transmission.
        assert!(
            r.short_completion_cycles > 10_000,
            "short flow at {} cycles should be starved",
            r.short_completion_cycles
        );
    }

    #[test]
    fn bcast_on_sub_communicator() {
        let topo = Topology::torus2d(2, 4);
        let r = bcast_subset(&topo, vec![1, 3, 5, 7], 3, 500, &params()).unwrap();
        assert_eq!(r.errors, 0);
    }

    #[test]
    fn reduce_tree_small() {
        let topo = Topology::torus2d(2, 4);
        let mut p = params();
        p.reduce_credits = 16;
        let r = collective(
            &topo,
            CollectiveKind::Reduce,
            CollectiveScheme::Tree,
            0,
            64,
            Datatype::Float,
            ReduceOp::Add,
            &p,
        )
        .unwrap();
        assert_eq!(r.errors, 0);
    }
}
