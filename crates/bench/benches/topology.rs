//! Criterion benchmarks of route generation — the offline cost the paper's
//! route generator pays when the cluster topology changes.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use smi_topology::deadlock::is_deadlock_free;
use smi_topology::{RoutingPlan, Topology};

fn bench_route_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("routegen");
    for (name, topo) in [
        ("bus8", Topology::bus(8)),
        ("torus2x4", Topology::torus2d(2, 4)),
        ("torus8x8", Topology::torus2d(8, 8)),
        ("torus16x16", Topology::torus2d(16, 16)),
        ("bus256", Topology::bus(256)),
        ("random64", {
            let mut rng = SmallRng::seed_from_u64(1);
            Topology::random_connected(64, 4, 32, &mut rng).unwrap()
        }),
    ] {
        g.bench_function(format!("updown/{name}"), |b| {
            b.iter(|| RoutingPlan::compute(black_box(&topo)).unwrap())
        });
        let plan = RoutingPlan::compute(&topo).unwrap();
        g.bench_function(format!("deadlock_check/{name}"), |b| {
            b.iter(|| is_deadlock_free(black_box(&topo), black_box(&plan)))
        });
    }
    g.finish();
}

fn bench_json(c: &mut Criterion) {
    let topo = Topology::torus2d(8, 8);
    let json = topo.to_json();
    c.bench_function("topology/json_roundtrip", |b| {
        b.iter(|| Topology::from_json(black_box(&json)).unwrap())
    });
}

criterion_group!(benches, bench_route_generation, bench_json);
criterion_main!(benches);
