//! Property tests: on random connected topologies, up*/down* routing must
//! route every pair over physical cables and remain deadlock-free; and a
//! routing plan read from JSON is a typed error or a plan that routes.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use smi_topology::deadlock::is_deadlock_free;
use smi_topology::routing::Scheme;
use smi_topology::{NextHop, PathStats, RoutingPlan, Topology, TopologyError};

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

/// The topologies the plan-decoder properties mutate plans for.
fn plan_topo(which: usize) -> Topology {
    match which % 3 {
        0 => Topology::bus(4),
        1 => Topology::ring(6),
        _ => Topology::torus2d(3, 3),
    }
}

/// A plan's JSON from its tables — `next[r]` rank `r`'s next hops, `hops[r]`
/// its hop row — in the form `smi-routegen` writes.
fn plan_json(n: usize, next: &[Vec<NextHop>], hops: &[Vec<u32>]) -> String {
    let table = |t: &Vec<NextHop>| format!(r#"{{"next":{}}}"#, serde_json::to_string(t).unwrap());
    let per_rank: Vec<String> = next.iter().map(table).collect();
    let hops = serde_json::to_string(hops).unwrap();
    let per_rank = per_rank.join(",");
    format!(r#"{{"num_ranks":{n},"scheme":"UpDown","per_rank":[{per_rank}],"hops":{hops}}}"#)
}

/// What a loader makes of `text` for `topo`: a JSON error, a typed
/// validation error, or a plan whose tables deliver every pair within its
/// recorded hops — never a panic.
fn plan_outcome(text: &str, topo: &Topology) -> Result<(), TestCaseError> {
    let plan = match serde_json::from_str::<RoutingPlan>(text) {
        Ok(plan) => plan,
        Err(e) => {
            prop_assert!(!e.to_string().is_empty());
            return Ok(());
        }
    };
    if let Err(e) = plan.validate_against(topo) {
        prop_assert!(matches!(e, TopologyError::BadSpec(_)), "{e}");
        return Ok(());
    }
    let n = topo.num_ranks();
    for (src, dst) in (0..n).flat_map(|s| (0..n).map(move |d| (s, d))) {
        let (mut at, mut left) = (src, plan.hops(src, dst));
        while let NextHop::Via(q) = plan.next_hop(at, dst) {
            prop_assert!(left > 0, "{} -> {} takes more than its hops", src, dst);
            at = topo.peer(at, q).expect("a validated port has a cable").rank;
            left -= 1;
        }
        prop_assert_eq!(at, dst);
    }
    Ok(())
}

/// The computed plans survive the JSON form the properties build.
#[test]
fn plan_json_reads_back_the_computed_plan() {
    for which in 0..3 {
        let topo = plan_topo(which);
        let plan = RoutingPlan::compute(&topo).unwrap();
        let n = topo.num_ranks();
        let next: Vec<Vec<NextHop>> = (0..n).map(|r| plan.rank_routes(r).next.clone()).collect();
        let hops = plan.clone().into_hops();
        let back: RoutingPlan = serde_json::from_str(&plan_json(n, &next, &hops)).unwrap();
        assert_eq!(back, plan);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Arbitrary bytes as a plan for each topology.
    #[test]
    fn routing_plan_decoder_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        which in 0usize..3,
    ) {
        plan_outcome(&String::from_utf8_lossy(&bytes), &plan_topo(which))?;
    }

    /// The computed plan of `bus(4)`, `ring(6)` or `torus2d(3,3)` with a
    /// few edits — a `per_rank` or `hops` entry dropped, a `Via` port past
    /// `ports_per_rank`, a table or hop row cut short — then a run of
    /// digits spliced after a digit of the text (a number grows, the JSON
    /// stays well-formed), and one case in eight cut short anywhere.
    #[test]
    fn routing_plan_decoder_survives_mutated_plans(
        which in 0usize..3,
        edits in prop::collection::vec((0u8..5, any::<usize>(), any::<usize>(), 0usize..1024), 0..4),
        digits in prop::collection::vec(0u8..10, 0..12),
        splice_at in any::<usize>(),
        cut in any::<usize>(),
    ) {
        let topo = plan_topo(which);
        let plan = RoutingPlan::compute(&topo).unwrap();
        let n = topo.num_ranks();
        let mut next: Vec<Vec<NextHop>> =
            (0..n).map(|r| plan.rank_routes(r).next.clone()).collect();
        let mut hops = plan.into_hops();
        for &(kind, a, b, by) in &edits {
            match kind {
                0 if !next.is_empty() => drop(next.remove(a % next.len())),
                1 if !hops.is_empty() => drop(hops.remove(a % hops.len())),
                2 => {
                    if let Some(row) = next.get_mut(a % n).filter(|r| !r.is_empty()) {
                        let dst = b % row.len();
                        row[dst] = NextHop::Via(topo.ports_per_rank() + by);
                    }
                }
                3 => {
                    if let Some(row) = next.get_mut(a % n) {
                        row.truncate(b % (row.len() + 1));
                    }
                }
                _ => {
                    if let Some(row) = hops.get_mut(a % n) {
                        row.truncate(b % (row.len() + 1));
                    }
                }
            }
        }
        let mut text = plan_json(n, &next, &hops).into_bytes();
        let after_digit: Vec<usize> = (1..=text.len())
            .filter(|&i| text[i - 1].is_ascii_digit())
            .collect();
        if !after_digit.is_empty() {
            let at = after_digit[splice_at % after_digit.len()];
            text.splice(at..at, digits.iter().map(|d| b'0' + d));
        }
        if cut % 8 == 0 {
            text.truncate(cut / 8 % (text.len() + 1));
        }
        plan_outcome(&String::from_utf8_lossy(&text), &topo)?;
    }
}
