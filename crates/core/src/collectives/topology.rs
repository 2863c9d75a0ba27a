//! Collective communication shapes: which tree a bcast's or a reduce's
//! control and data follow between the members of a communicator.
//!
//! The paper's reference implementation routes every element through the
//! root's communication kernel ("it does not yet implement tree-based
//! collectives, resulting in a higher congestion in the root rank", §5.3.4)
//! but names tree schemes as the natural extension the support-kernel
//! architecture enables (§4.4). Every tree here is derived **locally** —
//! no wire traffic, no extra handshake rounds — from inputs all members
//! hold identically, so every member computes the same one. A bcast or
//! reduce channel takes its tree as `WireEdges`: its parent and children as
//! the wire ranks its packets are addressed to.
//!
//! * **The star** (`WireEdges::star`) — the paper's shape: the root is
//!   the parent of every other member. Bcast and reduce take it under
//!   [`CollectiveScheme::Linear`].
//! * **The hop tree** ([`hop_tree`], shared with the cycle-level fabric
//!   through `smi_topology`) — what bcast and reduce take under
//!   [`CollectiveScheme::Tree`]. Every edge of these two carries the
//!   *whole* stream, so an edge that spans `k` routed hops costs `k`
//!   CKS/CKR forwards per packet and shares its links with every other edge
//!   routed over them. The tree is therefore grown over the launch's routed
//!   hop matrix: members join in order of distance from the root and attach
//!   to the nearest member already in the tree. On a full communicator over
//!   `bus`/`ring`/`torus2d`/`star` every edge is one physical link (the last
//!   hop of a member's route from the root always offers such a parent); on
//!   a sub-communicator it is the nearest-member tree. Deterministic from
//!   `(hop matrix, member list, root)`; O(n²), so a context caches it per
//!   `(communicator, root)` (`HopTrees`). The price is depth — 31 on
//!   `bus(32)` — which the per-message subtree-ready handshake climbs
//!   serially, one CKR crossing per level: an interior's CKR counts its
//!   children's ready-`Sync`s and sends the interior's own on.
//!
//! Scatter and gather take no tree. Their blocks are personalised: each
//! travels root ↔ owner as its own point-to-point stream, over the same
//! physical hops whatever the tree, and the receiver of each block grants
//! it directly — a scatter member at open, a gather root one member at a
//! time under `Linear` and several blocks ahead under `Tree`.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use smi_topology::hop_tree;

use crate::comm::Communicator;
use crate::SmiError;

/// How a collective routes its traffic between communicator members.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectiveScheme {
    /// Every element moves directly between the root and each member (the
    /// paper's shape). Lowest latency at small rank counts; the root's
    /// endpoint serializes `N−1` streams, so throughput falls off as the
    /// communicator grows.
    #[default]
    Linear,
    /// Tree routing: bcast and reduce stream along the hop tree (every edge
    /// as short as the routed topology allows), whose interior members
    /// fan out (bcast) or combine (reduce), so the root touches a few
    /// streams and the per-element fold work spreads over the whole
    /// communicator. A gather root grants several members ahead of the one
    /// it is popping. See the module docs.
    Tree,
}

/// The routed hop matrix of a launch (`hops[src][dst]`, world ranks), kept
/// from its routing plan and shared by every rank's context.
pub(crate) type HopTable = Arc<Vec<Vec<u32>>>;

/// One member's tree edges as the ranks its packets are addressed to — all
/// a channel needs of a tree.
#[derive(Debug, Clone)]
pub(crate) struct WireEdges {
    /// The parent (`None` at the root).
    pub parent: Option<u8>,
    /// The children, in ascending communicator order.
    pub children: Vec<u8>,
}

impl WireEdges {
    /// Translate edges from communicator indices to wire ranks — the one
    /// checked conversion every collective's ranks take on their way to a
    /// packet header.
    fn resolve(
        comm: &Communicator,
        parent: Option<usize>,
        children: impl Iterator<Item = usize>,
    ) -> Result<WireEdges, SmiError> {
        Ok(WireEdges {
            parent: parent.map(|p| comm.wire_rank(p)).transpose()?,
            children: children
                .map(|c| comm.wire_rank(c))
                .collect::<Result<_, _>>()?,
        })
    }

    /// This member's edges in the star of `comm` rooted at `root`: the root
    /// parents every other member, in ascending communicator order.
    pub fn star(comm: &Communicator, root: usize) -> Result<WireEdges, SmiError> {
        let me = comm.rank();
        let parent = (me != root).then_some(root);
        let children = (0..comm.size()).filter(|&m| me == root && m != root);
        WireEdges::resolve(comm, parent, children)
    }
}

/// This member's edges in the [`hop_tree`] of `comm` rooted at `root`.
fn hop_tree_edges(
    hops: &[Vec<u32>],
    comm: &Communicator,
    root: usize,
) -> Result<WireEdges, SmiError> {
    let (me, parents) = (comm.rank(), hop_tree(hops, comm.world_ranks(), root));
    let is_child = |&m: &usize| m != root && parents[m] == me;
    let parent = (me != root).then_some(parents[me]);
    WireEdges::resolve(comm, parent, (0..parents.len()).filter(is_child))
}

/// One rank's source of hop trees: the launch's hop matrix and the edges it
/// has derived from it so far, by `(communicator id, root)` beside the
/// member list they were derived for — the derivation is O(n²) (≈ 100 µs at
/// 256 ranks), every open after a communicator's first is a lookup.
pub(crate) struct HopTrees {
    hops: HopTable,
    derived: Mutex<HashMap<(u64, usize), Derived>>,
}

type Derived = (Arc<Vec<usize>>, WireEdges);

impl HopTrees {
    pub fn new(hops: HopTable) -> Self {
        HopTrees {
            hops,
            derived: Mutex::default(),
        }
    }

    /// This member's edges in the hop tree of `comm` rooted at `root`.
    pub fn edges(&self, comm: &Communicator, root: usize) -> Result<WireEdges, SmiError> {
        let (id, members) = comm.identity();
        let mut derived = self.derived.lock();
        if let Some((of, edges)) = derived.get(&(id, root)) {
            if of == members {
                return Ok(edges.clone());
            }
        }
        let edges = hop_tree_edges(&self.hops, comm, root)?;
        derived.insert((id, root), (members.clone(), edges.clone()));
        Ok(edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, SeedableRng};
    use smi_topology::{RoutingPlan, Topology};

    /// The five regular builders at a few sizes: on these a full
    /// communicator's hop tree must have one-link edges only.
    fn regular_topologies() -> Vec<(&'static str, Topology)> {
        vec![
            ("bus(2)", Topology::bus(2)),
            ("bus(9)", Topology::bus(9)),
            ("bus(32)", Topology::bus(32)),
            ("ring(8)", Topology::ring(8)),
            ("ring(13)", Topology::ring(13)),
            ("torus2d(2,4)", Topology::torus2d(2, 4)),
            ("torus2d(4,4)", Topology::torus2d(4, 4)),
            ("torus2d(3,5)", Topology::torus2d(3, 5)),
            ("star(7)", Topology::star(7)),
            ("fully_connected(6)", Topology::fully_connected(6)),
        ]
    }

    fn hops_of(topo: &Topology) -> Vec<Vec<u32>> {
        RoutingPlan::compute(topo).unwrap().into_hops()
    }

    /// Check the hop tree of `members` rooted at index `root` the way the
    /// channels meet it — every member derives its own edges — and return
    /// the parent relation: every member's chain of parents reaches the
    /// root (a spanning tree), `p` lists `c` as a child exactly when `c`
    /// names `p` its parent, and the edges cost no more routed hops than
    /// the lowest-bit binomial's.
    fn check_hop_tree(hops: &[Vec<u32>], members: &[usize], root: usize, at: &str) -> Vec<usize> {
        let n = members.len();
        let wire = |m: usize| u8::try_from(members[m]).unwrap();
        let edges: Vec<WireEdges> = (0..n)
            .map(|me| {
                let comm = Communicator::of_members(members.to_vec(), me);
                hop_tree_edges(hops, &comm, root).unwrap()
            })
            .collect();
        let parents = hop_tree(hops, members, root);
        for m in 0..n {
            let want = (m != root).then(|| wire(parents[m]));
            assert_eq!(edges[m].parent, want, "{at}: parent of member {m}");
            let mine: Vec<u8> = (0..n)
                .filter(|&c| edges[c].parent == Some(wire(m)))
                .map(wire)
                .collect();
            assert_eq!(edges[m].children, mine, "{at}: children of member {m}");
            let (mut up, mut steps) = (m, 0);
            while up != root {
                up = parents[up];
                steps += 1;
                assert!(steps < n, "{at}: member {m} never reaches the root");
            }
        }
        // The root is its own parent in both relations: a 0-hop edge.
        let cost = |parents: &[usize]| -> u32 {
            let edge = |(m, &p): (usize, &usize)| {
                let (p, c) = (members[p], members[m]);
                hops[p][c] + hops[c][p]
            };
            parents.iter().enumerate().map(edge).sum()
        };
        // The lowest-bit binomial tree over ranks rotated so the root is 0:
        // `v`'s parent clears its lowest set bit.
        let binomial: Vec<usize> = (0..n)
            .map(|m| (m + n - root) % n)
            .map(|v| ((v & v.wrapping_sub(1)) + root) % n)
            .collect();
        let (ours, theirs) = (cost(&parents), cost(&binomial));
        assert!(ours <= theirs, "{at}: {ours} hops against {theirs}");
        parents
    }

    #[test]
    fn full_communicator_hop_trees_span_over_single_links() {
        for (name, topo) in regular_topologies() {
            let hops = hops_of(&topo);
            let members: Vec<usize> = (0..topo.num_ranks()).collect();
            for root in 0..members.len() {
                let at = format!("{name} root {root}");
                let parents = check_hop_tree(&hops, &members, root, &at);
                for (m, &p) in parents.iter().enumerate().filter(|&(m, _)| m != root) {
                    assert_eq!((hops[p][m], hops[m][p]), (1, 1), "{at}: edge {p} -> {m}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Regular and seeded random topologies × any root × full and
        /// random sub-communicators, in world or reversed order.
        #[test]
        fn hop_trees_span_and_members_agree(
            pick in any::<u8>(),
            seed in any::<u64>(),
            root_pick in any::<u8>(),
            keep in prop::collection::vec(any::<bool>(), 32),
            full in any::<bool>(),
            reversed in any::<bool>(),
        ) {
            let regular = regular_topologies();
            let (name, topo) = match regular.get(pick as usize % (regular.len() + 6)) {
                Some((name, topo)) => (name.to_string(), topo.clone()),
                None => {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let ranks = 2 + (seed % 19) as usize;
                    let extra = (seed >> 8) as usize % 8;
                    let topo = Topology::random_connected(ranks, 4, extra, &mut rng).unwrap();
                    (format!("random_connected({ranks}, 4, {extra}) seed {seed}"), topo)
                }
            };
            let mut members: Vec<usize> =
                (0..topo.num_ranks()).filter(|&r| full || keep[r]).collect();
            prop_assume!(!members.is_empty());
            if reversed {
                members.reverse();
            }
            let root = root_pick as usize % members.len();
            let at = format!("{name} members {members:?} root {root}");
            check_hop_tree(&hops_of(&topo), &members, root, &at);
        }
    }

    #[test]
    fn star_parents_every_member_from_the_root() {
        let members = vec![6, 2, 9, 4, 0];
        let edges = |me| WireEdges::star(&Communicator::of_members(members.clone(), me), 2);
        let root = edges(2).unwrap();
        assert_eq!(root.parent, None);
        assert_eq!(root.children, vec![6, 2, 4, 0]);
        for leaf in [0, 1, 3, 4] {
            let leaf = edges(leaf).unwrap();
            assert_eq!(leaf.parent, Some(9));
            assert!(leaf.children.is_empty());
        }
    }

    #[test]
    fn single_member_communicator() {
        let comm = Communicator::of_members(vec![3], 0);
        let star = WireEdges::star(&comm, 0).unwrap();
        let hop = hop_tree_edges(&hops_of(&Topology::bus(4)), &comm, 0).unwrap();
        for edges in [star, hop] {
            assert!(edges.parent.is_none() && edges.children.is_empty());
        }
    }
}
