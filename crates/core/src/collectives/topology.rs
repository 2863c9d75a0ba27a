//! Collective communication shapes: how a collective's traffic is routed
//! between the members of a communicator.
//!
//! The paper's reference implementation routes every element through the
//! root's communication kernel ("it does not yet implement tree-based
//! collectives, resulting in a higher congestion in the root rank", §5.3.4)
//! but names tree schemes as the natural extension the support-kernel
//! architecture enables (§4.4). Every shape here is derived **locally** —
//! no wire traffic, no extra handshake rounds — from inputs all members
//! hold identically, so every member computes the same tree:
//!
//! * [`CollectiveScheme::Linear`] — the paper's shape, expressed as a
//!   *star tree*: the root is the parent of every other member. This keeps
//!   the pre-tree wire protocol bit-identical (it is the regression
//!   baseline) while letting the channel state machines share one code
//!   path for both schemes.
//! * [`CollectiveScheme::Tree`] — two trees, by what an edge carries:
//!   * **bcast and reduce: the hop tree** ([`hop_tree`], shared with the
//!     cycle-level fabric through `smi_topology`). Every edge of
//!     these two carries the *whole* stream, so an edge that spans `k`
//!     routed hops costs `k` CKS/CKR forwards per packet and shares its
//!     links with every other edge routed over them. The tree is therefore
//!     grown over the launch's routed hop matrix: members join in order of
//!     distance from the root and attach to the nearest member already in
//!     the tree. On a full communicator over `bus`/`ring`/`torus2d`/`star`
//!     every edge is one physical link (the last hop of a member's route
//!     from the root always offers such a parent); on a sub-communicator
//!     it is the nearest-member tree. Deterministic from `(hop matrix,
//!     member list, root)`; O(n²), so a context caches it per
//!     `(communicator, root)`. The price is depth — 31 on `bus(32)` — which
//!     the per-message subtree-ready handshake climbs serially.
//!   * **scatter and gather: the block tree** — a binomial tree over
//!     virtual ranks (communicator indices rotated so the root is virtual
//!     rank 0), from `(root, rank, num_ranks)` alone. A member's parent
//!     clears the lowest set bit of its virtual rank, which makes every
//!     subtree a *contiguous* virtual-rank range — the property that lets
//!     whole per-member blocks route through interior nodes without any
//!     in-band destination metadata. They stay on it on purpose: their
//!     blocks are personalised, each travels root ↔ owner over the same
//!     physical hops under any tree, so a deeper tree would only add
//!     app-level relays, and `TreeShape::schedule` counts on contiguous
//!     subtrees.
//!
//! For scatter and gather the tree additionally needs a deterministic
//! *block schedule* (`TreeShape::schedule`): the sequence of
//! `count`-element member blocks a node consumes/emits, in ascending
//! communicator order, each tagged with "mine" or "belongs to the subtree
//! of child *c*". Because (a) the root produces blocks in ascending
//! communicator order, (b) every tree edge preserves order, and (c)
//! subtrees are contiguous virtual-rank ranges, each node's arrival order
//! equals its schedule — so interior nodes forward packets at block
//! granularity with plain counting, no reordering and no header extension.

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
    /// Tree routing: non-root members act as interior forwarders
    /// (bcast/scatter) or combiners (reduce/gather), so the root touches a
    /// few streams and the per-element copy/fold work spreads over the
    /// whole communicator. Bcast and reduce take the hop tree (every edge
    /// as short as the routed topology allows), scatter and gather the
    /// lowest-bit binomial block tree — see the module docs for why.
    Tree,
}

/// Target of one run of a node's block schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RunTarget {
    /// This node's own `count`-element block.
    Own,
    /// Blocks belonging to the subtree of child *slot* (index into
    /// [`TreeShape::children`]).
    Child(usize),
}

/// One maximal run of consecutive same-target member blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    pub target: RunTarget,
    /// Number of whole member blocks in the run.
    pub blocks: usize,
}

impl Run {
    /// Elements in this run for a per-member element count.
    pub fn elems(&self, count: u64) -> u64 {
        self.blocks as u64 * count
    }
}

/// The routed hop matrix of a launch (`hops[src][dst]`, world ranks), kept
/// from its routing plan and shared by every rank's context.
pub(crate) type HopTable = Arc<Vec<Vec<u32>>>;

/// One member's tree edges as the ranks its packets are addressed to — all
/// a bcast or reduce channel needs of a tree.
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

/// The tree relations of one member, in communicator-index space.
#[derive(Debug, Clone)]
pub(crate) struct TreeShape {
    /// Communicator index of this node's parent (`None` at the root).
    pub parent: Option<usize>,
    /// Communicator indices of this node's children. For `Linear` at the
    /// root this is every other member in ascending communicator order
    /// (preserving the pre-tree fan-out/grant ordering); for `Tree` the
    /// children are in ascending virtual-rank order.
    pub children: Vec<usize>,
    n: usize,
    root: usize,
    my_v: usize,
    /// Size of this node's subtree in virtual-rank space.
    span: usize,
    /// `(virtual rank, span)` of each child, parallel to `children`.
    child_v: Vec<(usize, usize)>,
}

/// Virtual rank of communicator index `idx` (root ↦ 0).
#[inline]
pub(crate) fn vrank_of(idx: usize, root: usize, n: usize) -> usize {
    (idx + n - root) % n
}

/// Communicator index of virtual rank `v`.
#[inline]
pub(crate) fn idx_of_vrank(v: usize, root: usize, n: usize) -> usize {
    (v + root) % n
}

/// Parent of virtual rank `v` in the lowest-bit binomial tree (`None` for
/// the root). Clearing the lowest set bit keeps every subtree contiguous.
#[inline]
pub(crate) fn tree_parent_v(v: usize) -> Option<usize> {
    if v == 0 {
        None
    } else {
        Some(v & (v - 1))
    }
}

/// Size of the subtree rooted at virtual rank `v` over `n` nodes.
#[inline]
pub(crate) fn subtree_span(v: usize, n: usize) -> usize {
    if v == 0 {
        n
    } else {
        let lowbit = v & v.wrapping_neg();
        lowbit.min(n - v)
    }
}

/// Children of virtual rank `v` over `n` nodes, ascending. The root's
/// children are the powers of two; an inner node `v` owns `v + 2^j` for
/// every `2^j` below its lowest set bit.
pub(crate) fn tree_children_v(v: usize, n: usize) -> Vec<usize> {
    let limit = if v == 0 {
        n
    } else {
        v & v.wrapping_neg() // lowest set bit
    };
    let mut kids = Vec::new();
    let mut step = 1usize;
    while step < limit && v + step < n {
        kids.push(v + step);
        step <<= 1;
    }
    kids
}

impl TreeShape {
    /// Derive the shape for `my_idx` in a communicator of `n` members
    /// rooted at `root` (both communicator indices).
    pub fn new(scheme: CollectiveScheme, n: usize, root: usize, my_idx: usize) -> TreeShape {
        debug_assert!(root < n && my_idx < n);
        match scheme {
            CollectiveScheme::Linear => {
                if my_idx == root {
                    let children: Vec<usize> = (0..n).filter(|&i| i != root).collect();
                    let child_v = children
                        .iter()
                        .map(|&c| (vrank_of(c, root, n), 1))
                        .collect();
                    TreeShape {
                        parent: None,
                        children,
                        n,
                        root,
                        my_v: 0,
                        span: n,
                        child_v,
                    }
                } else {
                    TreeShape {
                        parent: Some(root),
                        children: Vec::new(),
                        n,
                        root,
                        my_v: vrank_of(my_idx, root, n),
                        span: 1,
                        child_v: Vec::new(),
                    }
                }
            }
            CollectiveScheme::Tree => {
                let my_v = vrank_of(my_idx, root, n);
                let parent = tree_parent_v(my_v).map(|p| idx_of_vrank(p, root, n));
                let kids_v = tree_children_v(my_v, n);
                let children: Vec<usize> =
                    kids_v.iter().map(|&v| idx_of_vrank(v, root, n)).collect();
                let child_v = kids_v.iter().map(|&v| (v, subtree_span(v, n))).collect();
                TreeShape {
                    parent,
                    children,
                    n,
                    root,
                    my_v,
                    span: subtree_span(my_v, n),
                    child_v,
                }
            }
        }
    }

    /// Number of members whose blocks flow through this node (its own
    /// included) — the subtree size.
    pub fn span(&self) -> usize {
        self.span
    }

    /// Translate the parent/children relations from communicator indices
    /// to the wire ranks packets are addressed to.
    pub fn resolve_world(&self, comm: &Communicator) -> Result<WireEdges, SmiError> {
        WireEdges::resolve(comm, self.parent, self.children.iter().copied())
    }

    /// The node's block schedule: per member block of its subtree, in
    /// ascending **communicator** order, whether the block is its own or
    /// routed via a child — with consecutive same-target blocks merged
    /// into runs. The root's schedule covers every member; a leaf's is a
    /// single `Own` run.
    pub fn schedule(&self) -> Vec<Run> {
        let mut runs: Vec<Run> = Vec::new();
        for p in 0..self.n {
            let v = vrank_of(p, self.root, self.n);
            if v < self.my_v || v >= self.my_v + self.span {
                continue;
            }
            let target = if v == self.my_v {
                RunTarget::Own
            } else {
                let slot = self
                    .child_v
                    .iter()
                    .position(|&(cv, cs)| v >= cv && v < cv + cs)
                    .expect("subtree member covered by exactly one child");
                RunTarget::Child(slot)
            };
            match runs.last_mut() {
                Some(last) if last.target == target => last.blocks += 1,
                _ => runs.push(Run { target, blocks: 1 }),
            }
        }
        runs
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
        let binomial: Vec<usize> = (0..n)
            .map(|m| TreeShape::new(CollectiveScheme::Tree, n, root, m).parent)
            .map(|p| p.unwrap_or(root))
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
    fn binomial_relations_lowbit() {
        // n = 8: root's children are 1, 2, 4; 4 owns 5 and 6; 6 owns 7.
        assert_eq!(tree_children_v(0, 8), vec![1, 2, 4]);
        assert_eq!(tree_children_v(1, 8), Vec::<usize>::new());
        assert_eq!(tree_children_v(2, 8), vec![3]);
        assert_eq!(tree_children_v(4, 8), vec![5, 6]);
        assert_eq!(tree_children_v(6, 8), vec![7]);
        assert_eq!(tree_parent_v(0), None);
        assert_eq!(tree_parent_v(5), Some(4));
        assert_eq!(tree_parent_v(6), Some(4));
        assert_eq!(tree_parent_v(7), Some(6));
    }

    #[test]
    fn subtrees_are_contiguous_and_partition() {
        for n in 2..48 {
            for v in 1..n {
                let p = tree_parent_v(v).unwrap();
                assert!(p < v);
                assert!(
                    tree_children_v(p, n).contains(&v),
                    "v={v} not a child of parent {p} (n={n})"
                );
            }
            // Each node's children's spans tile its own span minus itself.
            for v in 0..n {
                let span = subtree_span(v, n);
                let mut covered = vec![false; span];
                covered[0] = true; // the node itself
                for c in tree_children_v(v, n) {
                    for x in 0..subtree_span(c, n) {
                        let off = c + x - v;
                        assert!(off < span, "child {c} escapes subtree of {v} (n={n})");
                        assert!(!covered[off], "overlap at v={v} c={c} (n={n})");
                        covered[off] = true;
                    }
                }
                assert!(covered.iter().all(|&b| b), "gap under v={v} (n={n})");
            }
        }
    }

    #[test]
    fn depth_is_logarithmic() {
        for n in [2usize, 3, 17, 32, 33, 64] {
            for v in 0..n {
                let mut hops = 0;
                let mut at = v;
                while let Some(p) = tree_parent_v(at) {
                    at = p;
                    hops += 1;
                }
                assert!(hops <= n.ilog2() as usize + 1, "v={v} depth {hops} (n={n})");
            }
        }
    }

    #[test]
    fn linear_is_a_star() {
        let root = TreeShape::new(CollectiveScheme::Linear, 5, 2, 2);
        assert_eq!(root.parent, None);
        assert_eq!(root.children, vec![0, 1, 3, 4]);
        let leaf = TreeShape::new(CollectiveScheme::Linear, 5, 2, 4);
        assert_eq!(leaf.parent, Some(2));
        assert!(leaf.children.is_empty());
        // Star schedule at the root: one run per member, comm order.
        let runs = root.schedule();
        assert_eq!(runs.len(), 5);
        assert_eq!(runs[2].target, RunTarget::Own);
        assert!(runs.iter().all(|r| r.blocks == 1));
    }

    #[test]
    fn tree_schedules_tile_and_match_arrival_order() {
        for n in [2usize, 3, 6, 8, 12, 17, 32, 33] {
            for root in [0usize, 1, n / 2, n - 1] {
                // The root's schedule covers all members in comm order.
                let rs = TreeShape::new(CollectiveScheme::Tree, n, root, root);
                let total: usize = rs.schedule().iter().map(|r| r.blocks).sum();
                assert_eq!(total, n);
                for idx in 0..n {
                    let shape = TreeShape::new(CollectiveScheme::Tree, n, root, idx);
                    let runs = shape.schedule();
                    let total: usize = runs.iter().map(|r| r.blocks).sum();
                    assert_eq!(total, shape.span, "n={n} root={root} idx={idx}");
                    assert_eq!(
                        runs.iter()
                            .filter(|r| r.target == RunTarget::Own)
                            .map(|r| r.blocks)
                            .sum::<usize>(),
                        1
                    );
                    // Parent/child agreement: the blocks a child's schedule
                    // covers equal the blocks the parent routes to it.
                    for (slot, &c) in shape.children.iter().enumerate() {
                        let child = TreeShape::new(CollectiveScheme::Tree, n, root, c);
                        let via: usize = runs
                            .iter()
                            .filter(|r| r.target == RunTarget::Child(slot))
                            .map(|r| r.blocks)
                            .sum();
                        assert_eq!(via, child.span(), "n={n} root={root} idx={idx} c={c}");
                    }
                }
            }
        }
    }

    #[test]
    fn wrapped_subtree_splits_into_two_runs_at_most() {
        // Rotated roots wrap subtrees around comm index 0: a child may then
        // appear as two runs, never more.
        for n in 2..34 {
            for root in 0..n {
                for idx in 0..n {
                    let shape = TreeShape::new(CollectiveScheme::Tree, n, root, idx);
                    let runs = shape.schedule();
                    for slot in 0..shape.children.len() {
                        let k = runs
                            .iter()
                            .filter(|r| r.target == RunTarget::Child(slot))
                            .count();
                        assert!(k <= 2, "n={n} root={root} idx={idx} slot={slot}: {k} runs");
                    }
                }
            }
        }
    }

    #[test]
    fn single_member_communicator() {
        let shape = TreeShape::new(CollectiveScheme::Tree, 1, 0, 0);
        assert!(shape.parent.is_none() && shape.children.is_empty());
        assert_eq!(
            shape.schedule(),
            vec![Run {
                target: RunTarget::Own,
                blocks: 1
            }]
        );
    }
}
