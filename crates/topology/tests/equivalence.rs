//! Equivalence oracle: the path-materialising route generator that
//! `RoutingPlan::compute` used before it stopped storing paths, kept here as
//! a test-only reference. The library must yield the same next hops, hop
//! counts and paths, tie-breaks included, under both schemes.

use std::collections::VecDeque;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use smi_topology::routing::{Hop, Scheme};
use smi_topology::{Endpoint, NextHop, RoutingPlan, Topology};

/// `paths[src][dst]` = directed hops from src to dst (empty when src == dst).
type Paths = Vec<Vec<Vec<Hop>>>;

/// The reference route generator: every one of the n² paths, hop by hop.
fn oracle_paths(topo: &Topology, scheme: Scheme) -> Paths {
    let n = topo.num_ranks();
    let levels = bfs_levels(topo);
    (0..n)
        .map(|src| {
            let tree = match scheme {
                Scheme::UpDown => updown_bfs(topo, &levels, src),
                Scheme::ShortestPath => shortest_bfs(topo, src),
            };
            tree.into_iter()
                .enumerate()
                .map(|(dst, path)| path.unwrap_or_else(|| panic!("no route {src}->{dst}")))
                .collect()
        })
        .collect()
}

/// BFS levels from rank 0 (the up*/down* root).
fn bfs_levels(topo: &Topology) -> Vec<usize> {
    let n = topo.num_ranks();
    let mut level = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    level[0] = 0;
    queue.push_back(0usize);
    while let Some(u) = queue.pop_front() {
        for (_, ep) in topo.neighbors(u) {
            if level[ep.rank] == usize::MAX {
                level[ep.rank] = level[u] + 1;
                queue.push_back(ep.rank);
            }
        }
    }
    level
}

/// Is `u -> v` an "up" move (toward the root)? Level ties break by rank id.
fn is_up(levels: &[usize], u: usize, v: usize) -> bool {
    levels[v] < levels[u] || (levels[v] == levels[u] && v < u)
}

/// BFS over (rank, phase) states where phase=0 means "still going up" and
/// phase=1 means "now going down"; only up→down transitions are allowed.
/// Returns the shortest legal path to every rank (None when unreachable).
fn updown_bfs(topo: &Topology, levels: &[usize], src: usize) -> Vec<Option<Vec<Hop>>> {
    let n = topo.num_ranks();
    // state = rank * 2 + phase
    let mut parent: Vec<Option<(usize, Hop)>> = vec![None; n * 2];
    let mut dist = vec![usize::MAX; n * 2];
    let start = src * 2;
    dist[start] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(start);
    while let Some(state) = queue.pop_front() {
        let (u, phase) = (state / 2, state % 2);
        for (q, ep) in topo.neighbors(u) {
            let up = is_up(levels, u, ep.rank);
            let next_phase = if up { 0 } else { 1 };
            if phase == 1 && up {
                continue;
            }
            let next_state = ep.rank * 2 + next_phase;
            if dist[next_state] == usize::MAX {
                dist[next_state] = dist[state] + 1;
                parent[next_state] = Some((
                    state,
                    Hop {
                        from: Endpoint::new(u, q),
                        to: ep,
                    },
                ));
                queue.push_back(next_state);
            }
        }
    }
    (0..n)
        .map(|dst| {
            if dst == src {
                return Some(Vec::new());
            }
            let s_up = dst * 2;
            let s_down = dst * 2 + 1;
            let best = if dist[s_up] <= dist[s_down] {
                s_up
            } else {
                s_down
            };
            if dist[best] == usize::MAX {
                return None;
            }
            Some(walk_back(&parent, best))
        })
        .collect()
}

/// Plain BFS shortest paths (not deadlock-free in general).
fn shortest_bfs(topo: &Topology, src: usize) -> Vec<Option<Vec<Hop>>> {
    let n = topo.num_ranks();
    let mut parent: Vec<Option<(usize, Hop)>> = vec![None; n];
    let mut dist = vec![usize::MAX; n];
    dist[src] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        for (q, ep) in topo.neighbors(u) {
            if dist[ep.rank] == usize::MAX {
                dist[ep.rank] = dist[u] + 1;
                parent[ep.rank] = Some((
                    u,
                    Hop {
                        from: Endpoint::new(u, q),
                        to: ep,
                    },
                ));
                queue.push_back(ep.rank);
            }
        }
    }
    (0..n)
        .map(|dst| {
            if dst == src {
                return Some(Vec::new());
            }
            if dist[dst] == usize::MAX {
                return None;
            }
            Some(walk_back(&parent, dst))
        })
        .collect()
}

fn walk_back(parent: &[Option<(usize, Hop)>], mut cur: usize) -> Vec<Hop> {
    let mut hops = Vec::new();
    while let Some((prev, hop)) = parent[cur] {
        hops.push(hop);
        cur = prev;
    }
    hops.reverse();
    hops
}

/// What `validate_against` checked while plans stored paths: the path starts
/// at `src`, chains rank to rank over cables of `topo`, and ends at `dst`.
fn assert_physical(topo: &Topology, src: usize, dst: usize, path: &[Hop], at: &str) {
    let mut cur = src;
    for hop in path {
        assert_eq!(hop.from.rank, cur, "{at} to {dst}: path breaks at {hop:?}");
        let far = topo.peer(hop.from.rank, hop.from.qsfp);
        assert_eq!(far, Some(hop.to), "{at} to {dst}: {hop:?} is not a cable");
        cur = hop.to.rank;
    }
    assert_eq!(cur, dst, "{at} to {dst}: path ends at {cur}");
}

/// The library's plan equals the oracle on every pair, under both schemes,
/// and the paths they agree on are physically valid.
fn assert_equivalent(name: &str, topo: &Topology) {
    for scheme in [Scheme::UpDown, Scheme::ShortestPath] {
        let plan = RoutingPlan::compute_with(topo, scheme).unwrap();
        plan.validate_against(topo).unwrap();
        let oracle = oracle_paths(topo, scheme);
        let mut rebuilt = plan.paths(topo);
        for (src, from_src) in oracle.iter().enumerate() {
            let at = format!("{name} {scheme:?} from {src}");
            assert_eq!(rebuilt.next().as_ref(), Some(from_src), "{at}: paths");
            for (dst, path) in from_src.iter().enumerate() {
                assert_physical(topo, src, dst, path, &at);
                let next = match path.first() {
                    None => NextHop::Local,
                    Some(hop) => NextHop::Via(hop.from.qsfp),
                };
                assert_eq!(plan.next_hop(src, dst), next, "{at} to {dst}");
                assert_eq!(plan.hops(src, dst), path.len(), "{at} to {dst}");
            }
        }
        assert_eq!(
            rebuilt.next(),
            None,
            "{name} {scheme:?}: more sources than ranks"
        );
        let longest = oracle.iter().flatten().map(Vec::len).max().unwrap_or(0);
        assert_eq!(plan.max_hops(), longest, "{name} {scheme:?}: max_hops");
    }
}

#[test]
fn large_builders_match_oracle() {
    for (name, topo) in [
        ("bus(256)", Topology::bus(256)),
        ("ring(256)", Topology::ring(256)),
        ("torus2d(16,16)", Topology::torus2d(16, 16)),
        ("star(6)", Topology::star(6)),
        ("torus3d(4,4,4)", Topology::torus3d(4, 4, 4)),
        ("fully_connected(5)", Topology::fully_connected(5)),
    ] {
        assert_equivalent(name, &topo);
    }
}

/// Every topology the fig/tab binaries, the timed apps, the examples and the
/// benchmark launch.
#[test]
fn paper_and_benchmark_topologies_match_oracle() {
    for ranks in [1, 2, 4, 8, 32, 64] {
        assert_equivalent(&format!("bus({ranks})"), &Topology::bus(ranks));
    }
    for (rx, ry) in [(2, 2), (2, 4), (4, 4), (8, 8)] {
        assert_equivalent(&format!("torus2d({rx},{ry})"), &Topology::torus2d(rx, ry));
    }
    assert_equivalent("ring(6)", &Topology::ring(6));
    let fig8 = Topology::from_text("A:0 - B:0\nA:1 - C:1\nB:1 - C:2\n").unwrap();
    assert_equivalent("Fig. 8", &fig8);
    let degraded = Topology::torus2d(2, 4).without_connection(0).unwrap();
    assert_equivalent("torus2d(2,4) minus a cable", &degraded);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_topologies_match_oracle(
        n in 1usize..24,
        extra in 0usize..8,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let topo = Topology::random_connected(n, 4, extra, &mut rng).unwrap();
        assert_equivalent(&format!("random({n},{extra},{seed})"), &topo);
    }
}
