//! Path statistics: hop-count matrices, diameter, and routing stretch.

use crate::{RoutingPlan, Topology};

/// Summary statistics of a routing plan over a topology.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStats {
    /// BFS (ideal) hop count per pair: `shortest[src][dst]`.
    pub shortest: Vec<Vec<usize>>,
    /// Hop count under the routing plan per pair.
    pub routed: Vec<Vec<usize>>,
    /// Maximum BFS hop count (graph diameter).
    pub diameter: usize,
    /// Maximum routed hop count.
    pub routed_diameter: usize,
    /// Mean routed/shortest ratio over all distinct pairs (1.0 = all routes
    /// minimal).
    pub mean_stretch: f64,
}

/// BFS hop counts from every source, independent of route generation (the
/// reference that routed hop counts are compared against).
pub fn shortest_hops(topo: &Topology) -> Vec<Vec<usize>> {
    let n = topo.num_ranks();
    let mut all = Vec::with_capacity(n);
    for src in 0..n {
        let mut dist = vec![usize::MAX; n];
        dist[src] = 0;
        let mut queue = std::collections::VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            for (_, ep) in topo.neighbors(u) {
                if dist[ep.rank] == usize::MAX {
                    dist[ep.rank] = dist[u] + 1;
                    queue.push_back(ep.rank);
                }
            }
        }
        all.push(dist);
    }
    all
}

impl PathStats {
    /// Compute statistics for `plan` on `topo`.
    pub fn analyze(topo: &Topology, plan: &RoutingPlan) -> PathStats {
        let n = topo.num_ranks();
        let shortest = shortest_hops(topo);
        let routed: Vec<Vec<usize>> = (0..n)
            .map(|s| (0..n).map(|d| plan.hops(s, d)).collect())
            .collect();
        let diameter = shortest.iter().flatten().copied().max().unwrap_or(0);
        let stretch: Vec<f64> = (0..n)
            .flat_map(|s| (0..n).filter(move |&d| d != s).map(move |d| (s, d)))
            .map(|(s, d)| routed[s][d] as f64 / shortest[s][d] as f64)
            .collect();
        PathStats {
            diameter,
            routed_diameter: plan.max_hops(),
            mean_stretch: if stretch.is_empty() {
                1.0
            } else {
                stretch.iter().sum::<f64>() / stretch.len() as f64
            },
            shortest,
            routed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_stats() {
        let topo = Topology::bus(8);
        let plan = RoutingPlan::compute(&topo).unwrap();
        let stats = PathStats::analyze(&topo, &plan);
        assert_eq!(stats.diameter, 7);
        assert_eq!(stats.routed_diameter, 7);
        assert!(
            (stats.mean_stretch - 1.0).abs() < 1e-12,
            "bus routes are minimal"
        );
    }

    #[test]
    fn torus_diameter() {
        let topo = Topology::torus2d(2, 4);
        let plan = RoutingPlan::compute(&topo).unwrap();
        let stats = PathStats::analyze(&topo, &plan);
        // 2x4 torus: max distance is 1 (x) + 2 (y wrap) = 3.
        assert_eq!(stats.diameter, 3);
        assert!(stats.routed_diameter >= stats.diameter);
        assert!(stats.mean_stretch >= 1.0);
    }

    #[test]
    fn routed_never_shorter_than_bfs() {
        let topo = Topology::torus2d(3, 3);
        let plan = RoutingPlan::compute(&topo).unwrap();
        let stats = PathStats::analyze(&topo, &plan);
        for s in 0..9 {
            for d in 0..9 {
                assert!(stats.routed[s][d] >= stats.shortest[s][d]);
            }
        }
    }
}
