//! Route computation: deadlock-free up\*/down\* routing and per-rank
//! next-hop tables.
//!
//! The paper (§4.3) computes static routes offline "using a deadlock-free
//! routing scheme \[Domke et al., 8\], according to the target FPGA
//! interconnection topology", and uploads the resulting tables to the
//! devices at runtime. We implement **up\*/down\*** routing — the classic
//! deadlock-free oblivious scheme for arbitrary topologies: links are
//! oriented toward a BFS spanning-tree root, and every route consists of
//! zero or more "up" hops followed by zero or more "down" hops. Because no
//! route ever turns down→up, the channel-dependency graph is provably
//! acyclic, which [`crate::deadlock::find_cycle`] verifies per instance.
//!
//! One search per source carries the first-hop port and the distance to
//! every rank: a plan is O(n²) small integers, and no path is materialised.
//!
//! A plain shortest-path scheme ([`Scheme::ShortestPath`]) is also provided;
//! it is *not* deadlock-free in general (e.g. on rings) and exists for
//! comparison and for negative tests of the deadlock checker.

use serde::{Deserialize, Serialize};

use crate::{Endpoint, Topology, TopologyError};

/// Where a rank must send a packet for a given destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NextHop {
    /// The destination is this rank: deliver to the local CKR.
    Local,
    /// Forward out of the given QSFP port.
    Via(usize),
}

/// One directed traversal of a cable, from port `from` into port `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Hop {
    /// Outgoing endpoint (sender side of the cable).
    pub from: Endpoint,
    /// Incoming endpoint (receiver side of the cable).
    pub to: Endpoint,
}

/// The routing table of one rank: `next[dst]` says where packets for `dst`
/// leave this rank. This is the content the paper uploads into the on-chip
/// M20K routing tables of the CKS modules.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankRoutes {
    /// Indexed by destination rank.
    pub next: Vec<NextHop>,
}

/// The routing scheme used to compute a [`RoutingPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scheme {
    /// Up*/down* over a BFS spanning tree rooted at rank 0 — deadlock-free.
    UpDown,
    /// Plain BFS shortest paths — minimal hop count but **not** guaranteed
    /// deadlock-free; for analysis/ablation only.
    ShortestPath,
}

/// A complete set of routes for a topology — what the launch path and the
/// devices consume: per-rank next-hop tables plus the routed hop count of
/// every (src, dst) pair. Full paths are not stored; [`RoutingPlan::paths`]
/// rebuilds them per source for analysis.
///
/// A plan loaded from a file must pass [`RoutingPlan::validate_against`]
/// before its tables are indexed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingPlan {
    num_ranks: usize,
    scheme: Scheme,
    per_rank: Vec<RankRoutes>,
    /// hops[src][dst] = routed hop count (0 when src == dst).
    hops: Vec<Vec<u32>>,
}

impl RoutingPlan {
    /// Compute a deadlock-free up*/down* routing plan.
    pub fn compute(topo: &Topology) -> Result<RoutingPlan, TopologyError> {
        Self::compute_with(topo, Scheme::UpDown)
    }

    /// Compute a routing plan with an explicit scheme.
    pub fn compute_with(topo: &Topology, scheme: Scheme) -> Result<RoutingPlan, TopologyError> {
        let n = topo.num_ranks();
        let mut search = Search::new(topo, scheme);
        let mut per_rank = Vec::with_capacity(n);
        let mut hops = Vec::with_capacity(n);
        for src in 0..n {
            search.run(src);
            let (mut next, mut row) = (vec![NextHop::Local; n], vec![0; n]);
            for dst in (0..n).filter(|&dst| dst != src) {
                let best = search
                    .best(dst)
                    .ok_or(TopologyError::NoRoute { src, dst })?;
                next[dst] = NextHop::Via(best.first_port as usize);
                row[dst] = best.dist;
            }
            per_rank.push(RankRoutes { next });
            hops.push(row);
        }
        Ok(RoutingPlan {
            num_ranks: n,
            scheme,
            per_rank,
            hops,
        })
    }

    /// Number of ranks covered.
    #[inline]
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    /// The scheme used.
    #[inline]
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Next hop at `rank` for packets destined to `dst`.
    #[inline]
    pub fn next_hop(&self, rank: usize, dst: usize) -> NextHop {
        self.per_rank[rank].next[dst]
    }

    /// The per-rank table (what gets uploaded to the device).
    #[inline]
    pub fn rank_routes(&self, rank: usize) -> &RankRoutes {
        &self.per_rank[rank]
    }

    /// Number of network hops from `src` to `dst` under this plan.
    #[inline]
    pub fn hops(&self, src: usize, dst: usize) -> usize {
        self.hops[src][dst] as usize
    }

    /// Give up the tables and keep the hop matrix (`[src][dst]`, 0 on the
    /// diagonal): what a launch still needs once the fabric is wired, and
    /// what [`hop_tree`] reads.
    pub fn into_hops(self) -> Vec<Vec<u32>> {
        self.hops
    }

    /// The longest routed path in the plan (routed diameter).
    pub fn max_hops(&self) -> usize {
        self.hops.iter().flatten().copied().max().unwrap_or(0) as usize
    }

    /// The full directed paths, one `paths[dst]` per source in rank order
    /// (empty for the source itself), rebuilt by the search that produced
    /// the tables: one BFS plus the path walks per source. `topo` must be
    /// the topology this plan was computed for.
    pub fn paths<'a>(&self, topo: &'a Topology) -> impl Iterator<Item = Vec<Vec<Hop>>> + 'a {
        let n = topo.num_ranks();
        let mut search = Search::new(topo, self.scheme);
        (0..n).map(move |src| {
            search.run(src);
            (0..n).map(|dst| search.path_to(dst)).collect()
        })
    }

    /// Verify that these tables route on `topo`, without re-running the
    /// search: they are `num_ranks` × `num_ranks`, only a rank itself is
    /// `Local`, and every `Via` port has a cable whose far end is at least
    /// one recorded hop closer to the destination. By induction on the hop
    /// count, a packet following the tables from any rank then arrives
    /// within `hops(src, dst)` steps, so a plan that passes can be indexed,
    /// wired and walked without panicking or looping.
    pub fn validate_against(&self, topo: &Topology) -> Result<(), TopologyError> {
        let n = topo.num_ranks();
        let bad = |msg: String| Err(TopologyError::BadSpec(msg));
        let square = [self.num_ranks, self.per_rank.len(), self.hops.len()] == [n; 3]
            && self.per_rank.iter().all(|t| t.next.len() == n)
            && self.hops.iter().all(|row| row.len() == n);
        if !square {
            return bad(format!("routing tables are not {n}x{n}"));
        }
        for (rank, dst) in (0..n).flat_map(|r| (0..n).map(move |d| (r, d))) {
            let (next, hops) = (self.per_rank[rank].next[dst], self.hops[rank][dst]);
            let closer = |far: Endpoint| self.hops[far.rank][dst] < hops;
            let leads_there = match next {
                NextHop::Local => rank == dst && hops == 0,
                NextHop::Via(q) => rank != dst && topo.peer(rank, q).is_some_and(closer),
            };
            if !leads_there {
                return bad(format!(
                    "rank {rank}'s entry for rank {dst} ({next:?}, {hops} hops) does not lead \
                     there over a cable"
                ));
            }
        }
        Ok(())
    }
}

/// The hop tree of a tree bcast or reduce, on both the functional and the
/// cycle-level plane: the parent of every member of `members` (world ranks
/// in communicator order; the result is in communicator indices, the root
/// its own parent), grown over a plan's hop matrix
/// ([`RoutingPlan::into_hops`]). Members are placed in order of
/// `(hops(root, m), m)` and each attaches to the placed member with the
/// shortest round trip `hops(p, m) + hops(m, p)` — data flows one way,
/// handshake and credits the other — preferring on a tie the one with the
/// fewest children so far, then the lowest index. On a full communicator
/// over `bus`/`ring`/`torus2d`/`star` every edge is one physical link.
/// O(n²).
pub fn hop_tree(hops: &[Vec<u32>], members: &[usize], root: usize) -> Vec<usize> {
    let n = members.len();
    let mut order: Vec<usize> = (0..n).filter(|&m| m != root).collect();
    order.sort_by_key(|&m| (hops[members[root]][members[m]], m));
    let mut parent = vec![root; n];
    let mut kids = vec![0usize; n];
    let mut placed = Vec::with_capacity(n);
    placed.push(root);
    for m in order {
        let wm = members[m];
        let round_trip = |p: usize| hops[members[p]][wm] + hops[wm][members[p]];
        let p = *placed
            .iter()
            .min_by_key(|&&p| (round_trip(p), kids[p], p))
            .expect("the root is placed");
        parent[m] = p;
        kids[p] += 1;
        placed.push(m);
    }
    parent
}

/// Is the directed traversal `u -> v` an "up" move (toward the root)?
/// Ties on level are broken by rank id so every cable has exactly one up
/// direction.
#[inline]
fn is_up(levels: &[u32], u: usize, v: usize) -> bool {
    levels[v] < levels[u] || (levels[v] == levels[u] && v < u)
}

const UNREACHED: u32 = u32::MAX;

/// The per-source route search and its scratch buffers, reused across
/// sources. BFS over `(rank, phase)` states, `state = rank * 2 + phase`:
/// phase 0 means "still going up", phase 1 "now going down", and only
/// up→down transitions are allowed. Under [`Scheme::ShortestPath`] every
/// move counts as up, which makes this a plain BFS over ranks.
struct Search<'a> {
    topo: &'a Topology,
    /// The cabled ports of each rank, in port order.
    moves: Vec<Vec<Move>>,
    /// What the search found out about each state.
    reached: Vec<Reached>,
    /// FIFO of discovered states; never pops, `run` reads it by index.
    queue: Vec<u32>,
}

/// One cabled port as the search sees it.
struct Move {
    port: u32,
    to_rank: u32,
    up: bool,
}

/// The shortest legal path from the source to one state.
#[derive(Clone, Copy)]
struct Reached {
    /// Its hop count ([`UNREACHED`] if there is no such path).
    dist: u32,
    /// The source port it leaves through.
    first_port: u32,
    /// Its last hop: out of state `prev` through port `port`.
    prev: u32,
    port: u32,
}

const NOT_REACHED: Reached = Reached {
    dist: UNREACHED,
    first_port: 0,
    prev: 0,
    port: 0,
};

impl<'a> Search<'a> {
    fn new(topo: &'a Topology, scheme: Scheme) -> Self {
        let states = topo.num_ranks() * 2;
        // Up*/down* levels: hop counts of a plain search from the root, rank 0.
        let levels = (scheme == Scheme::UpDown).then(|| {
            let mut bfs = Search::new(topo, Scheme::ShortestPath);
            bfs.run(0);
            Vec::from_iter(bfs.reached.iter().step_by(2).map(|r| r.dist))
        });
        let moves_of = |u: usize| {
            let to_move = |(q, ep): (usize, Endpoint)| Move {
                port: q as u32,
                to_rank: ep.rank as u32,
                up: levels.as_ref().is_none_or(|l| is_up(l, u, ep.rank)),
            };
            topo.neighbors(u).map(to_move).collect()
        };
        Search {
            topo,
            moves: (0..topo.num_ranks()).map(moves_of).collect(),
            reached: vec![NOT_REACHED; states],
            queue: Vec::with_capacity(states),
        }
    }

    /// Search from `src`, overwriting the previous source's results.
    fn run(&mut self, src: usize) {
        self.reached.fill(NOT_REACHED);
        self.queue.clear();
        let start = src * 2;
        self.reached[start].dist = 0;
        self.queue.push(start as u32);
        let mut head = 0;
        while let Some(&state) = self.queue.get(head) {
            head += 1;
            let from = self.reached[state as usize];
            let (u, phase) = (state as usize / 2, state % 2);
            for m in &self.moves[u] {
                // In the up phase we may keep going up or turn down;
                // in the down phase we may only continue down.
                if phase == 1 && m.up {
                    continue;
                }
                let next = m.to_rank * 2 + u32::from(!m.up);
                let to = &mut self.reached[next as usize];
                if to.dist == UNREACHED {
                    *to = Reached {
                        dist: from.dist + 1,
                        // Only the source itself has dist 0.
                        first_port: if from.dist == 0 {
                            m.port
                        } else {
                            from.first_port
                        },
                        prev: state,
                        port: m.port,
                    };
                    self.queue.push(next);
                }
            }
        }
    }

    /// The state in which the shortest legal path reaches `dst` (ties go to
    /// the up phase), or `None` when `dst` is unreachable.
    fn best(&self, dst: usize) -> Option<&Reached> {
        let (up, down) = (&self.reached[dst * 2], &self.reached[dst * 2 + 1]);
        let best = if up.dist <= down.dist { up } else { down };
        (best.dist != UNREACHED).then_some(best)
    }

    /// The hops of the shortest legal path to `dst`; empty for the source
    /// itself and for an unreachable rank.
    fn path_to(&self, dst: usize) -> Vec<Hop> {
        let Some(mut at) = self.best(dst) else {
            return Vec::new();
        };
        let mut hops = Vec::with_capacity(at.dist as usize);
        while at.dist != 0 {
            let (rank, q) = (at.prev as usize / 2, at.port as usize);
            hops.push(Hop {
                from: Endpoint::new(rank, q),
                to: self.topo.peer(rank, q).expect("searched over cabled ports"),
            });
            at = &self.reached[at.prev as usize];
        }
        hops.reverse();
        hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_routes_are_linear() {
        let topo = Topology::bus(8);
        let plan = RoutingPlan::compute(&topo).unwrap();
        plan.validate_against(&topo).unwrap();
        // Hop counts on a bus are |src - dst|.
        for s in 0..8 {
            for d in 0..8 {
                assert_eq!(plan.hops(s, d), s.abs_diff(d), "bus {s}->{d}");
            }
        }
        assert_eq!(plan.max_hops(), 7);
        // Direction sanity: 0 -> 7 leaves through port 1 (east).
        assert_eq!(plan.next_hop(0, 7), NextHop::Via(1));
        assert_eq!(plan.next_hop(3, 0), NextHop::Via(0));
        assert_eq!(plan.next_hop(5, 5), NextHop::Local);
    }

    #[test]
    fn torus_routes_valid_and_bounded() {
        let topo = Topology::torus2d(2, 4);
        let plan = RoutingPlan::compute(&topo).unwrap();
        plan.validate_against(&topo).unwrap();
        // Up*/down* on this torus cannot exceed 2x the BFS eccentricity.
        assert!(plan.max_hops() <= 5, "max hops {}", plan.max_hops());
        for s in 0..8 {
            for d in 0..8 {
                if s != d {
                    assert!(plan.hops(s, d) >= 1);
                }
            }
        }
    }

    #[test]
    fn shortest_scheme_is_minimal() {
        let topo = Topology::ring(6);
        let sp = RoutingPlan::compute_with(&topo, Scheme::ShortestPath).unwrap();
        sp.validate_against(&topo).unwrap();
        for s in 0..6usize {
            for d in 0..6usize {
                let direct = s.abs_diff(d).min(6 - s.abs_diff(d));
                assert_eq!(sp.hops(s, d), direct);
            }
        }
    }

    #[test]
    fn updown_on_ring_detours_but_routes() {
        // Up*/down* on a ring must avoid the "wrap" turn somewhere; paths
        // may be longer than shortest but must exist and be valid.
        let topo = Topology::ring(6);
        let plan = RoutingPlan::compute(&topo).unwrap();
        plan.validate_against(&topo).unwrap();
        assert!(plan.max_hops() >= 3);
    }

    #[test]
    fn single_rank_plan() {
        let topo = Topology::bus(1);
        let plan = RoutingPlan::compute(&topo).unwrap();
        assert_eq!(plan.next_hop(0, 0), NextHop::Local);
        assert_eq!(plan.max_hops(), 0);
    }

    #[test]
    fn two_rank_plan() {
        let topo = Topology::bus(2);
        let plan = RoutingPlan::compute(&topo).unwrap();
        assert_eq!(plan.hops(0, 1), 1);
        assert_eq!(plan.hops(1, 0), 1);
        let hop = Hop {
            from: Endpoint::new(0, 1),
            to: Endpoint::new(1, 0),
        };
        assert_eq!(plan.paths(&topo).next(), Some(vec![vec![], vec![hop]]));
    }

    #[test]
    fn bus_hop_tree_is_the_chains_leaving_the_root() {
        let hops = RoutingPlan::compute(&Topology::bus(8)).unwrap().into_hops();
        let members: Vec<usize> = (0..8).collect();
        assert_eq!(hop_tree(&hops, &members, 0), vec![0, 0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(hop_tree(&hops, &members, 5), vec![1, 2, 3, 4, 5, 5, 5, 6]);
        // Even ranks only: the nearest member is two links away.
        assert_eq!(hop_tree(&hops, &[0, 2, 4, 6], 1), vec![1, 1, 1, 2]);
    }

    #[test]
    fn serde_roundtrip() {
        let topo = Topology::torus2d(2, 2);
        let plan = RoutingPlan::compute(&topo).unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: RoutingPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn malformed_plan_is_a_typed_error() {
        let topo = Topology::bus(4);
        let plan = RoutingPlan::compute(&topo).unwrap();
        let bad_spec = |plan: &RoutingPlan, topo: &Topology| {
            matches!(plan.validate_against(topo), Err(TopologyError::BadSpec(_)))
        };
        let check = |what: &str, edit: fn(&mut RoutingPlan)| {
            let mut edited = plan.clone();
            edit(&mut edited);
            assert!(bad_spec(&edited, &topo), "{what}");
        };
        check("a truncated table row", |p| p.per_rank[2].next.truncate(3));
        check("a missing hop row", |p| p.hops.truncate(3));
        // Rank 0 of a bus has nothing on port 0, and no device has a port 9.
        check("an uncabled port", |p| {
            p.per_rank[0].next[3] = NextHop::Via(0)
        });
        check("a port past the device", |p| {
            p.per_rank[0].next[3] = NextHop::Via(9)
        });
        // 1 -> 3 sent west, where rank 0 sends it back east.
        check("a loop", |p| p.per_rank[1].next[3] = NextHop::Via(0));
        check("a hop count the walk cannot meet", |p| p.hops[0][3] = 1);
        check("a rank swallowing packets", |p| {
            p.per_rank[2].next[3] = NextHop::Local
        });
        // Tables of another rank count, and of other cabling (port 1 of the
        // star's hub is rank 2).
        assert!(bad_spec(&plan, &Topology::bus(5)));
        assert!(bad_spec(&plan, &Topology::star(4)));
        // The bus tables do route on a ring, which has every bus cable.
        plan.validate_against(&Topology::ring(4)).unwrap();
    }
}
