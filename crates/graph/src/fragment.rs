//! Graph fragmentation for the distributed setting of §6.2.
//!
//! A fragmentation `(F_1, …, F_n)` of `G` assigns every node to exactly
//! one fragment (edges belong to the fragment of their source). Each
//! fragment tracks its border:
//!
//! * **in-nodes** `F_i.I` — nodes of `F_i` that have an incoming edge
//!   from another fragment;
//! * **out-nodes** `F_i.O` — nodes in *other* fragments reachable by an
//!   edge leaving `F_i`.
//!
//! The `disVal` algorithm uses border nodes to mark "missing data" in
//! partial work units and to estimate communication costs.

use std::fmt;

use crate::graph::{Graph, NodeId};

/// Identifier of a fragment (processor site `S_i`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FragmentId(pub u16);

impl FragmentId {
    /// The fragment id as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for FragmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F{}", self.0)
    }
}

/// How nodes are distributed over fragments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Node id modulo `n` — maximal edge cut, worst case for
    /// communication; useful as an adversarial baseline.
    Hash,
    /// Contiguous id ranges — what bulk loaders typically produce.
    Contiguous,
    /// Greedy BFS clustering filling one fragment at a time — a cheap
    /// locality-preserving stand-in for a min-cut partitioner.
    BfsClustered,
}

/// Per-fragment node lists and border sets.
#[derive(Clone, Debug, Default)]
pub struct FragmentInfo {
    /// Nodes owned by this fragment (sorted).
    pub nodes: Vec<NodeId>,
    /// `F_i.I`: owned nodes with an incoming cross-fragment edge (sorted).
    pub in_border: Vec<NodeId>,
    /// `F_i.O`: foreign nodes reachable by an edge from this fragment (sorted).
    pub out_border: Vec<NodeId>,
    /// Number of edges whose source is owned by this fragment.
    pub edge_count: usize,
}

impl FragmentInfo {
    /// `|F_i|` as nodes + owned edges.
    pub fn size(&self) -> usize {
        self.nodes.len() + self.edge_count
    }
}

/// A complete fragmentation of a graph.
pub struct Fragmentation {
    owner: Vec<FragmentId>,
    fragments: Vec<FragmentInfo>,
}

impl Fragmentation {
    /// Partitions `g` into `n` fragments with the given strategy.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn partition(g: &Graph, n: usize, strategy: PartitionStrategy) -> Self {
        assert!(n > 0, "cannot partition into zero fragments");
        let owner = match strategy {
            PartitionStrategy::Hash => g
                .nodes()
                .map(|u| FragmentId((u.0 as usize % n) as u16))
                .collect(),
            PartitionStrategy::Contiguous => {
                let per = g.node_count().div_ceil(n).max(1);
                g.nodes()
                    .map(|u| FragmentId(((u.index() / per).min(n - 1)) as u16))
                    .collect()
            }
            PartitionStrategy::BfsClustered => bfs_clustered(g, n),
        };
        Self::from_owner(g, n, owner)
    }

    /// Builds a fragmentation from an explicit node → fragment map.
    pub fn from_owner(g: &Graph, n: usize, owner: Vec<FragmentId>) -> Self {
        assert_eq!(owner.len(), g.node_count());
        let mut fragments = vec![FragmentInfo::default(); n];
        for u in g.nodes() {
            let f = owner[u.index()];
            fragments[f.index()].nodes.push(u);
        }
        for u in g.nodes() {
            let fu = owner[u.index()];
            for a in g.out_slice(u) {
                let v = a.node;
                fragments[fu.index()].edge_count += 1;
                let fv = owner[v.index()];
                if fu != fv {
                    fragments[fu.index()].out_border.push(v);
                    fragments[fv.index()].in_border.push(v);
                }
            }
        }
        for info in &mut fragments {
            info.in_border.sort_unstable();
            info.in_border.dedup();
            info.out_border.sort_unstable();
            info.out_border.dedup();
        }
        Fragmentation { owner, fragments }
    }

    /// Number of fragments `n`.
    pub fn n(&self) -> usize {
        self.fragments.len()
    }

    /// The fragment owning `node`.
    pub fn owner(&self, node: NodeId) -> FragmentId {
        self.owner[node.index()]
    }

    /// Per-fragment info.
    pub fn fragment(&self, f: FragmentId) -> &FragmentInfo {
        &self.fragments[f.index()]
    }

    /// Iterates over all fragments.
    pub fn fragments(&self) -> impl Iterator<Item = (FragmentId, &FragmentInfo)> + '_ {
        self.fragments
            .iter()
            .enumerate()
            .map(|(i, info)| (FragmentId(i as u16), info))
    }
}

/// Greedy BFS clustering: repeatedly grow a fragment from an unassigned
/// seed until it reaches `|V|/n` nodes, then move to the next fragment.
fn bfs_clustered(g: &Graph, n: usize) -> Vec<FragmentId> {
    let capacity = g.node_count().div_ceil(n).max(1);
    let mut owner = vec![FragmentId(u16::MAX); g.node_count()];
    let mut current = 0usize;
    let mut filled = 0usize;
    let mut queue = std::collections::VecDeque::new();
    for seed in g.nodes() {
        if owner[seed.index()].0 != u16::MAX {
            continue;
        }
        queue.push_back(seed);
        while let Some(u) = queue.pop_front() {
            if owner[u.index()].0 != u16::MAX {
                continue;
            }
            owner[u.index()] = FragmentId(current as u16);
            filled += 1;
            if filled >= capacity && current + 1 < n {
                current += 1;
                filled = 0;
                queue.clear();
                break;
            }
            for v in g.neighbors(u) {
                if owner[v.index()].0 == u16::MAX {
                    queue.push_back(v);
                }
            }
        }
    }
    owner
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of cross-fragment edges (the edge cut).
    fn edge_cut(frag: &Fragmentation, g: &Graph) -> usize {
        let cut = g.edges().filter(|e| frag.owner(e.src) != frag.owner(e.dst));
        cut.count()
    }

    fn ring(n: usize) -> Graph {
        let mut b = crate::graph::GraphBuilder::with_fresh_vocab();
        let ns: Vec<NodeId> = (0..n).map(|_| b.add_node_labeled("v")).collect();
        for i in 0..n {
            b.add_edge_labeled(ns[i], ns[(i + 1) % n], "e");
        }
        b.freeze()
    }

    #[test]
    fn every_node_owned_exactly_once() {
        let g = ring(20);
        for strategy in [
            PartitionStrategy::Hash,
            PartitionStrategy::Contiguous,
            PartitionStrategy::BfsClustered,
        ] {
            let frag = Fragmentation::partition(&g, 4, strategy);
            let total: usize = frag.fragments().map(|(_, f)| f.nodes.len()).sum();
            assert_eq!(total, 20, "{strategy:?}");
            for u in g.nodes() {
                let f = frag.owner(u);
                assert!(frag.fragment(f).nodes.contains(&u));
            }
        }
    }

    #[test]
    fn edges_covered_by_fragments() {
        let g = ring(12);
        let frag = Fragmentation::partition(&g, 3, PartitionStrategy::Contiguous);
        let total_edges: usize = frag.fragments().map(|(_, f)| f.edge_count).sum();
        assert_eq!(total_edges, g.edge_count());
    }

    #[test]
    fn border_nodes_match_edge_cut() {
        let g = ring(12);
        let frag = Fragmentation::partition(&g, 3, PartitionStrategy::Contiguous);
        // A 12-ring cut into 3 contiguous arcs has 3 cut edges.
        assert_eq!(edge_cut(&frag, &g), 3);
        for (fid, info) in frag.fragments() {
            for &b in &info.in_border {
                assert!(frag.owner(b) == fid, "in-border nodes are local");
            }
            for &b in &info.out_border {
                assert!(frag.owner(b) != fid, "out-border nodes are foreign");
            }
        }
    }

    #[test]
    fn bfs_clustering_cuts_less_than_hash() {
        let g = ring(64);
        let hash = Fragmentation::partition(&g, 4, PartitionStrategy::Hash);
        let bfs = Fragmentation::partition(&g, 4, PartitionStrategy::BfsClustered);
        assert!(edge_cut(&bfs, &g) < edge_cut(&hash, &g));
    }

    #[test]
    fn fragment_sizes_roughly_balanced() {
        let g = ring(100);
        let frag = Fragmentation::partition(&g, 4, PartitionStrategy::BfsClustered);
        for (_, info) in frag.fragments() {
            assert!(info.nodes.len() >= 20 && info.nodes.len() <= 30);
        }
    }
}
