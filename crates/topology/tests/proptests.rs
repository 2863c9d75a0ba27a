//! Property tests: on random connected topologies, up*/down* routing must
//! route every pair over physical cables and remain deadlock-free.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use smi_topology::deadlock::is_deadlock_free;
use smi_topology::routing::Scheme;
use smi_topology::{PathStats, RoutingPlan, Topology};

fn random_topo(n: usize, ports: usize, extra: usize, seed: u64) -> Topology {
    let mut rng = SmallRng::seed_from_u64(seed);
    Topology::random_connected(n, ports, extra, &mut rng).expect("random topology")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every pair is routed, paths follow real cables, and the CDG is acyclic.
    #[test]
    fn updown_routes_everything_deadlock_free(
        n in 1usize..24,
        extra in 0usize..8,
        seed in any::<u64>(),
    ) {
        let ports = 4;
        let topo = random_topo(n, ports, extra, seed);
        let plan = RoutingPlan::compute(&topo).unwrap();
        plan.validate_against(&topo).unwrap();
        prop_assert!(is_deadlock_free(&topo, &plan));
    }

    /// Routed paths are never shorter than BFS, and stretch stays sane
    /// (up*/down* can detour, but never beyond 2x diameter + 1 on these sizes).
    #[test]
    fn updown_stretch_bounded(
        n in 2usize..20,
        extra in 0usize..6,
        seed in any::<u64>(),
    ) {
        let topo = random_topo(n, 4, extra, seed);
        let plan = RoutingPlan::compute(&topo).unwrap();
        let stats = PathStats::analyze(&topo, &plan);
        for s in 0..n {
            for d in 0..n {
                prop_assert!(stats.routed[s][d] >= stats.shortest[s][d]);
            }
        }
        prop_assert!(stats.routed_diameter <= 2 * stats.diameter + 1);
    }

    /// Shortest-path routing is minimal (sanity for the comparison scheme).
    #[test]
    fn shortest_path_is_minimal(
        n in 2usize..20,
        extra in 0usize..6,
        seed in any::<u64>(),
    ) {
        let topo = random_topo(n, 4, extra, seed);
        let plan = RoutingPlan::compute_with(&topo, Scheme::ShortestPath).unwrap();
        let stats = PathStats::analyze(&topo, &plan);
        for s in 0..n {
            for d in 0..n {
                prop_assert_eq!(stats.routed[s][d], stats.shortest[s][d]);
            }
        }
    }

    /// JSON round-trips preserve the topology exactly.
    #[test]
    fn json_roundtrip(n in 1usize..16, extra in 0usize..5, seed in any::<u64>()) {
        let topo = random_topo(n, 4, extra, seed);
        let back = Topology::from_json(&topo.to_json()).unwrap();
        prop_assert_eq!(topo, back);
    }

    /// Next-hop tables agree with the first hop of the rebuilt paths
    /// (the invariant the CKS hardware tables rely on).
    #[test]
    fn tables_match_paths(n in 2usize..16, seed in any::<u64>()) {
        let topo = random_topo(n, 4, 3, seed);
        let plan = RoutingPlan::compute(&topo).unwrap();
        for (s, paths) in plan.paths(&topo).enumerate() {
            for (d, path) in paths.iter().enumerate() {
                match plan.next_hop(s, d) {
                    smi_topology::NextHop::Local => prop_assert_eq!(s, d),
                    smi_topology::NextHop::Via(q) => {
                        prop_assert_eq!(path[0].from.qsfp, q);
                        prop_assert_eq!(path[0].from.rank, s);
                    }
                }
            }
        }
    }
}
