//! Packets follow the per-rank tables hop by hop: each rank looks up its own
//! `next_hop` for the destination. `deadlock::find_cycle` checks the
//! source-computed paths instead. These tests walk the tables the way the
//! CKS modules do and pin where the two agree — and where they do not.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use smi_topology::deadlock::{is_deadlock_free, Channel};
use smi_topology::{NextHop, RoutingPlan, Topology};

/// The channels a packet from `src` to `dst` takes when every rank on the
/// way consults its own table.
fn walk(topo: &Topology, plan: &RoutingPlan, src: usize, dst: usize) -> Vec<Channel> {
    let mut at = src;
    let mut walked = Vec::new();
    while let NextHop::Via(qsfp) = plan.next_hop(at, dst) {
        assert!(walked.len() < topo.num_ranks(), "walk {src}->{dst} loops");
        walked.push(Channel { rank: at, qsfp });
        at = topo.peer(at, qsfp).expect("table names a cabled port").rank;
    }
    assert_eq!(at, dst, "walk {src}->{dst} ends at {at}");
    walked
}

/// The source-computed paths, which are what `find_cycle` checks:
/// `checked[src][dst]`.
fn checked(topo: &Topology, plan: &RoutingPlan) -> Vec<Vec<Vec<Channel>>> {
    let channels = |path: Vec<_>| path.into_iter().map(Channel::from).collect();
    plan.paths(topo)
        .map(|from_src| from_src.into_iter().map(channels).collect())
        .collect()
}

/// Is the channel-dependency graph of the walked routes acyclic? (Kahn's
/// algorithm: a cycle leaves channels that never become dependency-free.)
fn walked_cdg_is_acyclic(topo: &Topology, plan: &RoutingPlan) -> bool {
    let (n, ports) = (topo.num_ranks(), topo.ports_per_rank());
    let id = |c: Channel| c.rank * ports + c.qsfp;
    let mut edges = vec![Vec::new(); n * ports];
    for src in 0..n {
        for dst in 0..n {
            for w in walk(topo, plan, src, dst).windows(2) {
                let (a, b) = (id(w[0]), id(w[1]));
                if !edges[a].contains(&b) {
                    edges[a].push(b);
                }
            }
        }
    }
    let mut waits_on = vec![0usize; n * ports];
    for &b in edges.iter().flatten() {
        waits_on[b] += 1;
    }
    let mut free: Vec<usize> = (0..n * ports).filter(|&c| waits_on[c] == 0).collect();
    let mut released = 0;
    while let Some(a) = free.pop() {
        released += 1;
        for &b in &edges[a] {
            waits_on[b] -= 1;
            if waits_on[b] == 0 {
                free.push(b);
            }
        }
    }
    released == n * ports
}

/// On the paper's builders, at the sizes EXPERIMENTS.md and the benchmark
/// launch, the walked route is the checked route and cannot deadlock.
#[test]
fn builders_walk_the_paths_find_cycle_checks() {
    let mut topos: Vec<(String, Topology)> = Vec::new();
    for n in [2, 4, 8, 32, 64, 256] {
        topos.push((format!("bus({n})"), Topology::bus(n)));
    }
    for n in [3, 6, 8, 256] {
        topos.push((format!("ring({n})"), Topology::ring(n)));
    }
    for (rx, ry) in [(2, 2), (2, 4), (4, 4), (8, 8), (16, 16)] {
        topos.push((format!("torus2d({rx},{ry})"), Topology::torus2d(rx, ry)));
    }
    topos.push(("star(6)".into(), Topology::star(6)));
    for (name, topo) in topos {
        let plan = RoutingPlan::compute(&topo).unwrap();
        for (src, paths) in checked(&topo, &plan).iter().enumerate() {
            for (dst, path) in paths.iter().enumerate() {
                assert_eq!(&walk(&topo, &plan, src, dst), path, "{name} {src}->{dst}");
            }
        }
        assert!(walked_cdg_is_acyclic(&topo, &plan), "{name}: walked CDG");
    }
}

/// The checker used by the test above does find cycles.
#[test]
fn walked_cdg_of_shortest_paths_on_a_ring_is_cyclic() {
    use smi_topology::routing::Scheme;
    let topo = Topology::ring(6);
    let plan = RoutingPlan::compute_with(&topo, Scheme::ShortestPath).unwrap();
    assert!(!walked_cdg_is_acyclic(&topo, &plan));
}

/// KNOWN GAP, not yet fixed (ROADMAP "Open items"; `deadlock` module docs):
/// on irregular graphs the table walk leaves the source-computed path, so
/// `find_cycle` vouches for routes the packets do not take, and the walked
/// CDG can be cyclic (39 of seeds 0..2000 of this generator, this one
/// included). Asserts what should hold; remove `#[ignore]` with the fix.
#[test]
#[ignore = "documents a known routing gap: table walk != checked path on irregular graphs"]
fn known_gap_seed_86_table_walk_leaves_the_path_find_cycle_checked() {
    let mut rng = SmallRng::seed_from_u64(86);
    let topo = Topology::random_connected(10, 4, 6, &mut rng).unwrap();
    let plan = RoutingPlan::compute(&topo).unwrap();
    assert!(is_deadlock_free(&topo, &plan), "find_cycle reports acyclic");

    let ranks_of = |channels: &[Channel]| -> Vec<usize> {
        let mut ranks: Vec<usize> = channels.iter().map(|c| c.rank).collect();
        ranks.push(8);
        ranks
    };
    let checked_3_8 = ranks_of(&checked(&topo, &plan)[3][8]);
    assert_eq!(checked_3_8, [3, 7, 1, 8], "the reproducer moved");
    // Today this walks [3, 7, 2, 8]: rank 7's own table sends 8 via rank 2.
    assert_eq!(ranks_of(&walk(&topo, &plan, 3, 8)), checked_3_8);
    assert!(walked_cdg_is_acyclic(&topo, &plan));
}
