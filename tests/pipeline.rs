//! Integration: the full Fig. 8 development workflow, end to end —
//! op metadata → generated communication design → routing tables → running
//! program, across `smi-codegen`, `smi-topology` and the `smi` runtime.

use smi::env::SmiCtx;
use smi::prelude::*;
use smi_codegen::{emit, ClusterDesign};
use smi_topology::deadlock::is_deadlock_free;
use smi_topology::{RoutingPlan, Topology};

#[test]
fn full_workflow_from_text_topology() {
    // 1. The cluster description, as the operator would write it.
    let text = "0:1 - 1:0\n1:1 - 2:0\n2:1 - 3:0\n";
    let topo = Topology::from_text(text).expect("parse topology");
    assert_eq!(topo.num_ranks(), 4);

    // 2. Route generation (the smi-routegen step), with a deadlock check.
    let plan = RoutingPlan::compute(&topo).expect("routes");
    assert!(is_deadlock_free(&topo, &plan));

    // 3. Code generation from the metadata the "Clang pass" extracted.
    let metas = vec![
        ProgramMeta::new().with(OpSpec::send(3, Datatype::Double)),
        ProgramMeta::new(),
        ProgramMeta::new(),
        ProgramMeta::new().with(OpSpec::recv(3, Datatype::Double)),
    ];
    let design = ClusterDesign::mpmd(&metas, &topo).expect("design");
    let report = emit::emit_cluster_report(&design);
    assert!(report.contains("rank 0") && report.contains("Send<Double>"));

    // 4. Run the program over the generated design.
    type Prog = Box<dyn FnOnce(SmiCtx) -> f64 + Send>;
    let programs: Vec<Prog> = vec![
        Box::new(|ctx| {
            let mut ch = ctx.open_send_channel::<f64>(40, 3, 3).unwrap();
            for i in 0..40 {
                ch.push(&(i as f64 * 0.25)).unwrap();
            }
            0.0
        }),
        Box::new(|_| 0.0),
        Box::new(|_| 0.0),
        Box::new(|ctx| {
            let mut ch = ctx.open_recv_channel::<f64>(40, 0, 3).unwrap();
            (0..40).map(|_| ch.pop().unwrap()).sum()
        }),
    ];
    let report = run_mpmd(&topo, metas, programs, RuntimeParams::default()).unwrap();
    assert_eq!(
        report.results[3],
        (0..40).map(|i| i as f64 * 0.25).sum::<f64>()
    );
    assert_eq!(report.transport.2, 0, "no unroutable packets");
}

#[test]
fn routing_plan_serialization_roundtrip_via_json() {
    // The routing tables travel as JSON artifacts (the smi-routegen output).
    let topo = Topology::torus2d(2, 4);
    let plan = RoutingPlan::compute(&topo).unwrap();
    let json = serde_json::to_string(&plan).unwrap();
    let back: RoutingPlan = serde_json::from_str(&json).unwrap();
    assert_eq!(plan, back);
    back.validate_against(&topo).unwrap();
}

#[test]
fn truncated_or_edited_routing_artifact_is_a_typed_error() {
    use smi_topology::TopologyError;
    let topo = Topology::bus(4);
    let json = serde_json::to_string(&RoutingPlan::compute(&topo).unwrap()).unwrap();
    let load = |text: &str| serde_json::from_str::<RoutingPlan>(text);

    // Cut mid-file: no longer JSON.
    assert!(load(&json[..json.len() / 2]).is_err());
    // The pre-table format (`paths`, no `hops`) does not load either.
    assert!(load(&json.replace("\"hops\"", "\"paths\"")).is_err());

    // Cut at a row boundary and closed by hand: loads, but rank 3's hop row
    // is gone. Indexing it would panic; validation says so first.
    let cut = format!("{}]}}", &json[..json.rfind(",[").unwrap()]);
    let truncated = load(&cut).expect("still well-formed JSON");
    let err = truncated.validate_against(&topo).unwrap_err();
    assert!(matches!(err, TopologyError::BadSpec(_)), "{err}");

    // Rank 0 sending through port 3, which has no cable on a bus.
    let edited = load(&json.replacen("{\"Via\":1}", "{\"Via\":3}", 1)).unwrap();
    let err = edited.validate_against(&topo).unwrap_err();
    assert!(matches!(err, TopologyError::BadSpec(_)), "{err}");
}

#[test]
fn spmd_program_one_design_any_rank_count() {
    // "For SPMD programs … the user only needs to build a single bitstream
    // for any number of nodes": the same metadata works on 2, 4 and 8 ranks.
    let meta = ProgramMeta::new().with(OpSpec::bcast(0, Datatype::Int));
    for topo in [
        Topology::bus(2),
        Topology::torus2d(2, 2),
        Topology::torus2d(2, 4),
    ] {
        let n_ranks = topo.num_ranks();
        let design = ClusterDesign::spmd(&meta, &topo).expect("design");
        design.validate_collectives().expect("consistent");
        let report = run_spmd(
            &topo,
            meta.clone(),
            move |ctx: SmiCtx| {
                let comm = ctx.world();
                let mut ch = ctx.open_bcast_channel::<i32>(5, 0, 0, &comm).unwrap();
                let mut out = Vec::new();
                for i in 0..5 {
                    let mut v = if comm.rank() == 0 { i * 11 } else { 0 };
                    ch.bcast(&mut v).unwrap();
                    out.push(v);
                }
                out
            },
            RuntimeParams::default(),
        )
        .unwrap();
        for r in report.results {
            assert_eq!(r, vec![0, 11, 22, 33, 44], "{n_ranks} ranks");
        }
    }
}

#[test]
fn routes_recompute_after_topology_change_without_redesign() {
    // "you can change the routes without recompiling the bitstream": the
    // same design runs on the torus and on the degraded torus.
    let meta = ProgramMeta::new()
        .with(OpSpec::send(0, Datatype::Int))
        .with(OpSpec::recv(0, Datatype::Int));
    let full = Topology::torus2d(2, 2);
    let degraded = full.without_connection(0).expect("still connected");
    for topo in [full, degraded] {
        let report = run_spmd(
            &topo,
            meta.clone(),
            |ctx: SmiCtx| {
                let peer = (ctx.rank() + 1) % ctx.num_ranks();
                let from = (ctx.rank() + ctx.num_ranks() - 1) % ctx.num_ranks();
                let mut tx = ctx.open_send_channel::<i32>(7, peer, 0).unwrap();
                for i in 0..7 {
                    tx.push(&(ctx.rank() as i32 * 10 + i)).unwrap();
                }
                drop(tx);
                let mut rx = ctx.open_recv_channel::<i32>(7, from, 0).unwrap();
                (0..7).map(|_| rx.pop().unwrap()).collect::<Vec<i32>>()
            },
            RuntimeParams::default(),
        )
        .unwrap();
        for (rank, got) in report.results.iter().enumerate() {
            let from = (rank + 4 - 1) % 4;
            let want: Vec<i32> = (0..7).map(|i| from as i32 * 10 + i).collect();
            assert_eq!(got, &want);
        }
    }
}
