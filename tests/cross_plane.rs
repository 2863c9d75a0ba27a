//! Integration: the functional plane (thread runtime) and the timing plane
//! (cycle-level fabric) implement the same protocols — cross-check their
//! behaviour and assert the paper's headline shapes on the fabric.

use smi_fabric::bench_api::{collective, p2p_stream, pingpong, CollectiveKind, CollectiveScheme};
use smi_fabric::params::FabricParams;
use smi_topology::Topology;
use smi_wire::{Datatype, ReduceOp};

#[test]
fn fabric_bandwidth_shape_matches_paper() {
    // Fig. 9's two claims: (1) bandwidth approaches ~91% of the 35 Gbit/s
    // payload peak at large sizes, (2) network distance does not matter.
    let params = FabricParams::default();
    let topo = Topology::bus(8);
    let large = 1 << 20; // 4 MiB of floats
    let near = p2p_stream(&topo, 0, 1, large, Datatype::Float, &params).unwrap();
    let far = p2p_stream(&topo, 0, 7, large, Datatype::Float, &params).unwrap();
    assert!(near.payload_gbit_s > 0.9 * params.peak_payload_gbit_s());
    assert!(far.payload_gbit_s > 0.9 * params.peak_payload_gbit_s());
    assert!((far.payload_gbit_s / near.payload_gbit_s - 1.0).abs() < 0.03);
    assert_eq!(near.errors + far.errors, 0);
}

#[test]
fn fabric_latency_linear_in_hops() {
    // Tab. 3: latency ≈ linear in hops with ~0.7 µs slope.
    let params = FabricParams::default();
    let topo = Topology::bus(8);
    let l: Vec<f64> = [1usize, 4, 7]
        .iter()
        .map(|&h| pingpong(&topo, 0, h, 30, &params).unwrap().half_rtt_us)
        .collect();
    let slope1 = (l[1] - l[0]) / 3.0;
    let slope2 = (l[2] - l[1]) / 3.0;
    assert!(
        (slope1 / slope2 - 1.0).abs() < 0.15,
        "linear slope: {slope1} vs {slope2}"
    );
    assert!(
        (0.5..1.0).contains(&slope1),
        "per-hop latency {slope1} µs (paper ≈0.72)"
    );
}

#[test]
fn all_collectives_verify_on_both_schemes() {
    let params = FabricParams::default();
    let topo = Topology::torus2d(2, 4);
    for kind in [
        CollectiveKind::Bcast,
        CollectiveKind::Scatter,
        CollectiveKind::Gather,
        CollectiveKind::Reduce,
    ] {
        let r = collective(
            &topo,
            kind,
            CollectiveScheme::Linear,
            3,
            321,
            Datatype::Float,
            ReduceOp::Add,
            &params,
        )
        .unwrap();
        assert_eq!(r.errors, 0, "{kind:?} linear");
    }
    for kind in [CollectiveKind::Bcast, CollectiveKind::Reduce] {
        let r = collective(
            &topo,
            kind,
            CollectiveScheme::Tree,
            3,
            321,
            Datatype::Float,
            ReduceOp::Add,
            &params,
        )
        .unwrap();
        assert_eq!(r.errors, 0, "{kind:?} tree");
    }
}

#[test]
fn tree_bcast_beats_linear_at_scale() {
    // The paper's motivation for the tree extension: the linear root pushes
    // every packet N-1 times; on the hop tree every rank pushes it once per
    // child, over one physical link each.
    let params = FabricParams::default();
    let topo = Topology::torus2d(2, 4);
    let n = 1 << 14;
    let lin = collective(
        &topo,
        CollectiveKind::Bcast,
        CollectiveScheme::Linear,
        0,
        n,
        Datatype::Float,
        ReduceOp::Add,
        &params,
    )
    .unwrap();
    let tree = collective(
        &topo,
        CollectiveKind::Bcast,
        CollectiveScheme::Tree,
        0,
        n,
        Datatype::Float,
        ReduceOp::Add,
        &params,
    )
    .unwrap();
    assert!(
        (tree.cycles as f64) < lin.cycles as f64 * 0.75,
        "tree {} vs linear {}",
        tree.cycles,
        lin.cycles
    );
}

#[test]
fn hop_tree_relieves_the_root_on_a_long_bus() {
    // The congestion §5.3.4 concedes, on 32 ranks: the linear root streams
    // 31 copies (bcast) or folds 31 contributions (reduce) through one
    // kernel; on the hop tree (the chain on a bus) each rank relays to one
    // neighbour. Cycle counts repeat exactly: 17 944 / 152 448 (0.118) and
    // 32 225 / 427 153 (0.075); the highest-bit binomial tree read 0.558 and
    // 0.543, its long edges sharing links.
    let params = FabricParams::default();
    let topo = Topology::bus(32);
    for kind in [CollectiveKind::Bcast, CollectiveKind::Reduce] {
        let [lin, tree] = [CollectiveScheme::Linear, CollectiveScheme::Tree].map(|scheme| {
            let r = collective(
                &topo,
                kind,
                scheme,
                0,
                1 << 14,
                Datatype::Float,
                ReduceOp::Add,
                &params,
            )
            .unwrap();
            assert_eq!(r.errors, 0, "{kind:?} {scheme:?}");
            r.cycles
        });
        assert!(
            tree as f64 <= 0.25 * lin as f64,
            "{kind:?}: tree {tree} vs linear {lin} cycles"
        );
    }
}

#[test]
fn reduce_latency_sensitive_to_diameter() {
    // Fig. 11: the credit-based flow control makes Reduce slower on the
    // high-diameter bus than on the torus.
    let params = FabricParams {
        reduce_credits: 256, // pronounced credit round-trips
        ..Default::default()
    };
    let n = 1 << 14;
    let torus = collective(
        &Topology::torus2d(2, 4),
        CollectiveKind::Reduce,
        CollectiveScheme::Linear,
        0,
        n,
        Datatype::Float,
        ReduceOp::Add,
        &params,
    )
    .unwrap();
    let bus = collective(
        &Topology::bus(8),
        CollectiveKind::Reduce,
        CollectiveScheme::Linear,
        0,
        n,
        Datatype::Float,
        ReduceOp::Add,
        &params,
    )
    .unwrap();
    assert!(
        bus.cycles as f64 > torus.cycles as f64 * 1.3,
        "bus {} vs torus {}",
        bus.cycles,
        torus.cycles
    );
}

#[test]
fn bcast_insensitive_to_topology() {
    // Fig. 10: "SMI achieves similar performance independently of the
    // considered connection topology" (one-time sync, then streaming).
    let params = FabricParams::default();
    let n = 1 << 14;
    let run = |topo: &Topology| {
        collective(
            topo,
            CollectiveKind::Bcast,
            CollectiveScheme::Linear,
            0,
            n,
            Datatype::Float,
            ReduceOp::Add,
            &params,
        )
        .unwrap()
        .cycles as f64
    };
    let torus = run(&Topology::torus2d(2, 4));
    let bus = run(&Topology::bus(8));
    assert!(bus / torus < 1.6, "bus {bus} vs torus {torus}");
}

#[test]
fn functional_and_timed_gesummv_agree_on_structure() {
    // The functional plane proves correctness; the timing plane proves the
    // 2x speedup; both use the same decomposition.
    use smi::prelude::RuntimeParams;
    use smi_apps::gesummv::timed::{fig13_point, GesummvTimedParams};
    use smi_apps::gesummv::{functional, reference, GesummvProblem};
    let p = GesummvProblem::random(96, 96, 5);
    let got = functional::run_distributed(&p, RuntimeParams::default()).unwrap();
    assert_eq!(got, reference::gesummv(&p));
    let (_, _, speedup) = fig13_point(256, 256, &GesummvTimedParams::default()).unwrap();
    assert!((1.8..2.1).contains(&speedup));
}
