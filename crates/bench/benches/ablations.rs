//! Ablation benchmarks for the design choices called out in DESIGN.md:
//! polling persistence `R`, endpoint buffer depth (asynchronicity degree),
//! linear vs tree collectives, eager vs credit point-to-point.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use smi_fabric::bench_api::{
    collective, injection_rate, p2p_stream, two_flow_interference, CollectiveKind, CollectiveScheme,
};
use smi_fabric::params::FabricParams;
use smi_topology::Topology;
use smi_wire::{Datatype, ReduceOp};

/// The Tab. 4 ablation as a bench: simulated injection period vs R.
fn ablate_polling_r(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablate_polling_r");
    g.sample_size(10);
    for r in [1u32, 4, 8, 16] {
        g.bench_with_input(BenchmarkId::from_parameter(r), &r, |b, &r| {
            let params = FabricParams {
                poll_persistence: r,
                ..Default::default()
            };
            b.iter(|| black_box(injection_rate(&params, 2_000).unwrap()))
        });
    }
    g.finish();
}

/// Buffer-depth ablation: simulated transfer time of a fixed stream vs the
/// CK FIFO depth (the compile-time buffer-size optimization parameter of
/// §4.2).
fn ablate_buffer_depth(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablate_buffer_depth");
    g.sample_size(10);
    let topo = Topology::bus(4);
    for depth in [2usize, 8, 32, 128] {
        g.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            let params = FabricParams {
                ck_fifo_depth: depth,
                ..Default::default()
            };
            b.iter(|| {
                let r = p2p_stream(&topo, 0, 3, 20_000, Datatype::Float, &params).unwrap();
                black_box(r.cycles)
            })
        });
    }
    g.finish();
}

/// Linear vs hop-tree collective schemes (the paper's named extension).
fn ablate_tree_collectives(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablate_tree_collectives");
    g.sample_size(10);
    let params = FabricParams::default();
    let topo = Topology::torus2d(2, 4);
    for (name, kind, scheme) in [
        (
            "bcast_linear",
            CollectiveKind::Bcast,
            CollectiveScheme::Linear,
        ),
        ("bcast_tree", CollectiveKind::Bcast, CollectiveScheme::Tree),
        (
            "reduce_linear",
            CollectiveKind::Reduce,
            CollectiveScheme::Linear,
        ),
        (
            "reduce_tree",
            CollectiveKind::Reduce,
            CollectiveScheme::Tree,
        ),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let r = collective(
                    &topo,
                    kind,
                    scheme,
                    0,
                    8192,
                    Datatype::Float,
                    ReduceOp::Add,
                    &params,
                )
                .unwrap();
                assert_eq!(r.errors, 0);
                black_box(r.cycles)
            })
        });
    }
    g.finish();
}

/// Packet vs circuit switching (§4.2): simulated completion cycle of a short
/// message contending with a long stream on one CKS.
fn ablate_switching(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablate_switching");
    g.sample_size(10);
    for (name, hold) in [("packet", 0u32), ("circuit", 16)] {
        g.bench_function(name, |b| {
            let params = FabricParams {
                circuit_hold_cycles: hold,
                ..Default::default()
            };
            b.iter(|| {
                let r = two_flow_interference(&params, 20_000, 70).unwrap();
                black_box(r.short_completion_cycles)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    ablate_polling_r,
    ablate_buffer_depth,
    ablate_tree_collectives,
    ablate_switching
);
criterion_main!(benches);
